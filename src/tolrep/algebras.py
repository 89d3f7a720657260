"""Finite algebras as flat operation tables, plus compatibility and closure.

An operation of arity k on a universe of size n is a tuple of n**k result
values in row-major argument order: the first argument is the most
significant digit of the index.  Compatibility and closure both work on
"pair codes": the ordered pair (a, b) becomes the single integer a*n + b,
and every operation acts componentwise on codes through a table computed
once per algebra.  A relation is compatible exactly when its code set is
closed under those componentwise tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product
from typing import Iterable

from .errors import DimensionError
from .relations import BinRel, classify_shape

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


@dataclass(frozen=True)
class OperationTable:
    """Named finitary operation given by its value table."""

    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if not self.name:
            raise ValueError("operation name must be nonempty")
        if self.arity < 1:
            raise ValueError(f"operation {self.name!r} must take at least one argument")

    @classmethod
    def from_function(cls, name, arity, n, fn) -> OperationTable:
        table = tuple(fn(*args) for args in product(range(n), repeat=arity))
        return cls(name, arity, table)


@dataclass(frozen=True)
class Algebra:
    """Finite algebra: universe {0..n-1} and a tuple of operation tables."""

    n: int
    ops: tuple[OperationTable, ...] = ()
    _by_name: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n <= 0:
            raise ValueError(f"universe size must be positive, got {self.n}")
        by_name = {}
        for op in self.ops:
            if op.name in by_name:
                raise ValueError(f"duplicate operation name {op.name!r}")
            want = self.n ** op.arity
            if len(op.table) != want:
                raise ValueError(
                    f"operation {op.name!r} expects {want} table entries, got {len(op.table)}"
                )
            for v in op.table:
                if not (0 <= v < self.n):
                    raise ValueError(f"operation {op.name!r} has value {v} outside the universe")
            by_name[op.name] = op
        object.__setattr__(self, "_by_name", by_name)

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


@lru_cache(maxsize=None)
def _square_tables(algebra: Algebra) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Componentwise tables on pair codes (the operations of the square algebra)."""
    n = algebra.n
    m = n * n
    decomp = [divmod(c, n) for c in range(m)]
    out = []
    for op in algebra.ops:
        tab = op.table
        prefixes = [(0, 0)]
        for _ in range(op.arity):
            prefixes = [(ia * n + a, ib * n + b) for ia, ib in prefixes for a, b in decomp]
        out.append((op.arity, tuple(tab[ia] * n + tab[ib] for ia, ib in prefixes)))
    return tuple(out)


def _mark(member, codes, queue, code, symmetric, n):
    if member[code]:
        return
    member[code] = 1
    codes.append(code)
    queue.append(code)
    if symmetric:
        swapped = (code % n) * n + code // n
        if not member[swapped]:
            member[swapped] = 1
            codes.append(swapped)
            queue.append(swapped)


def _saturate(algebra, member, codes, queue, symmetric):
    """Drain the worklist: combine each new code with everything present.

    Every tuple over the final code set contains a last-added component,
    so pairing each newly added code against the whole current list in
    every argument position reaches the least fixpoint.
    """
    n = algebra.n
    m = n * n
    tables = _square_tables(algebra)
    while queue:
        c = queue.pop()
        for arity, sq in tables:
            if arity == 1:
                _mark(member, codes, queue, sq[c], symmetric, n)
            elif arity == 2:
                for d in codes:
                    _mark(member, codes, queue, sq[c * m + d], symmetric, n)
                    _mark(member, codes, queue, sq[d * m + c], symmetric, n)
            elif arity == 3:
                for d in codes:
                    dm = d * m
                    cm = c * m
                    for e in codes:
                        _mark(member, codes, queue, sq[(cm + d) * m + e], symmetric, n)
                        _mark(member, codes, queue, sq[(dm + c) * m + e], symmetric, n)
                        _mark(member, codes, queue, sq[(dm + e) * m + c], symmetric, n)
            else:
                for pos in range(arity):
                    for rest in product(list(codes), repeat=arity - 1):
                        idx = 0
                        for j in range(arity):
                            comp = c if j == pos else rest[j if j < pos else j - 1]
                            idx = idx * m + comp
                        _mark(member, codes, queue, sq[idx], symmetric, n)


def _rows_from_member(member, n) -> BinRel:
    rows = [0] * n
    for code in range(n * n):
        if member[code]:
            rows[code // n] |= 1 << (code % n)
    return BinRel(n, rows)


def closure(algebra: Algebra, seed: Iterable[tuple[int, int]], mode: str) -> BinRel:
    """Least relation containing the seed that the mode and the operations allow.

    "reflexive" adds the diagonal; "reflexive-symmetric" also adds the
    converse of every pair.  The result is closed under every operation of
    the algebra applied componentwise, hence always admissible (and a
    tolerance in the symmetric mode).
    """
    if mode not in CLOSURE_MODES:
        raise ValueError(f"mode must be one of {CLOSURE_MODES}, got {mode!r}")
    symmetric = mode == "reflexive-symmetric"
    n = algebra.n
    member = bytearray(n * n)
    codes: list[int] = []
    queue: list[int] = []
    for v in range(n):
        _mark(member, codes, queue, v * n + v, symmetric, n)
    for a, b in seed:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"seed pair ({a}, {b}) out of range for universe of size {n}")
        _mark(member, codes, queue, a * n + b, symmetric, n)
    _saturate(algebra, member, codes, queue, symmetric)
    return _rows_from_member(member, n)


def _grow(algebra: Algebra, rel: BinRel, extra: Iterable[tuple[int, int]], symmetric=False) -> BinRel:
    """Closure of rel plus extra pairs, assuming rel itself is already closed."""
    n = algebra.n
    member = bytearray(n * n)
    codes: list[int] = []
    for a, row in enumerate(rel.rows):
        base = a * n
        m = row
        while m:
            low = m & -m
            code = base + low.bit_length() - 1
            member[code] = 1
            codes.append(code)
            m ^= low
    queue: list[int] = []
    for a, b in extra:
        _mark(member, codes, queue, a * n + b, symmetric, n)
    _saturate(algebra, member, codes, queue, symmetric)
    return _rows_from_member(member, n)


def is_compatible(algebra: Algebra, rel: BinRel) -> bool:
    """Do the operations preserve the relation componentwise?

    Checks every tuple of related argument pairs directly, which costs
    |rel| ** arity table lookups per operation (fine through arity 3 at
    this package's universe sizes; steep beyond that).
    """
    if rel.n != algebra.n:
        raise DimensionError(f"relation lives on {rel.n} elements, algebra on {algebra.n}")
    n = algebra.n
    m = n * n
    member = bytearray(m)
    codes = []
    for a, b in rel.pairs():
        code = a * n + b
        member[code] = 1
        codes.append(code)
    for arity, sq in _square_tables(algebra):
        if arity == 1:
            for c in codes:
                if not member[sq[c]]:
                    return False
        elif arity == 2:
            for c in codes:
                base = c * m
                for d in codes:
                    if not member[sq[base + d]]:
                        return False
        elif arity == 3:
            for c in codes:
                cm = c * m
                for d in codes:
                    base = (cm + d) * m
                    for e in codes:
                        if not member[sq[base + e]]:
                            return False
        else:
            for tup in product(codes, repeat=arity):
                if not member[sq[reduce(lambda acc, x: acc * m + x, tup, 0)]]:
                    return False
    return True


@dataclass(frozen=True)
class RelationClass:
    tolerance: bool
    congruence: bool
    admissible: bool


def classify_relation(algebra: Algebra, rel: BinRel) -> RelationClass:
    """Admissible = reflexive compatible; tolerance adds symmetry; congruence adds transitivity."""
    shape = classify_shape(rel)
    if rel.n != algebra.n:
        raise DimensionError(f"relation lives on {rel.n} elements, algebra on {algebra.n}")
    admissible = shape.reflexive and is_compatible(algebra, rel)
    tolerance = admissible and shape.symmetric
    congruence = tolerance and shape.transitive
    return RelationClass(tolerance, congruence, admissible)


def expand(algebra: Algebra, theta: BinRel) -> Algebra:
    """Adjoin every unary map whose range sits inside one theta-related pair.

    For each pair a theta b (diagonal included, which contributes the
    constants) and each function f from the universe into {a, b}, the
    expansion gains f as a unary operation; duplicate tables appear once.
    theta stays a tolerance of the result, and any reflexive compatible
    relation of the expansion other than the diagonal contains theta,
    because an off-diagonal (c, d) maps onto every (a, b) with a theta b.
    """
    if not classify_relation(algebra, theta).tolerance:
        raise ValueError("expansion requires a tolerance of the algebra")
    n = algebra.n
    seen = set()
    tables = []
    for a in range(n):
        for b in range(a, n):
            if not theta.has(a, b):
                continue
            values = (a,) if a == b else (a, b)
            for func in product(values, repeat=n):
                if func not in seen:
                    seen.add(func)
                    tables.append(func)
    existing = {op.name for op in algebra.ops}
    new_ops = []
    idx = 0
    for func in tables:
        name = f"u{idx}"
        while name in existing:
            idx += 1
            name = f"u{idx}"
        existing.add(name)
        idx += 1
        new_ops.append(OperationTable(name, 1, func))
    return Algebra(n, algebra.ops + tuple(new_ops))
