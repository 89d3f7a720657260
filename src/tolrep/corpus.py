"""Bundled algebras and relations used throughout the test-suite and CLI.

Every entry is a `Document` whose notes describe it, so `tolrep corpus`
prints it as it is.  Element numbering is fixed and documented per entry;
the names accepted by corpus_get are five_set, s7_semilattice,
l7_majority, m3, n5, chain(k), theta_ab(n,a,b) and expand_five (the
parameterized ones written exactly like that, e.g. "chain(4)" or
"theta_ab(5,0,1)").
"""

from __future__ import annotations

import re

from .algebras import Algebra, OperationTable, expand
from .document import MAX_SIZE, Document
from .relations import BinRel

__all__ = [
    "corpus_get",
    "corpus_names",
    "five_set",
    "s7_semilattice",
    "l7_majority",
    "m3",
    "n5",
    "chain",
    "theta_ab",
    "expand_five",
]


def _lattice_ops(n: int, leq_pairs: set[tuple[int, int]]) -> tuple[OperationTable, OperationTable]:
    """Join and meet tables computed from a partial order given as pairs."""
    up = [set(b for b in range(n) if (a, b) in leq_pairs or a == b) for a in range(n)]
    down = [set(b for b in range(n) if (b, a) in leq_pairs or a == b) for a in range(n)]
    join = []
    meet = []
    for a in range(n):
        for b in range(n):
            uppers = up[a] & up[b]
            least = [u for u in uppers if all(u in down[v] or u == v for v in uppers)]
            lowers = down[a] & down[b]
            greatest = [u for u in lowers if all(u in up[v] or u == v for v in lowers)]
            if len(least) != 1 or len(greatest) != 1:
                raise ValueError(f"order is not a lattice at ({a}, {b})")
            join.append(least[0])
            meet.append(greatest[0])
    return OperationTable("join", 2, tuple(join)), OperationTable("meet", 2, tuple(meet))


def five_set() -> Document:
    """Five-element set with no operations; a, b1, b2, b3, c are 0..4.

    theta is the smallest reflexive symmetric relation with a theta b_i
    and b_i theta c.  With no operations to preserve it is a tolerance,
    and it has no representation as R∘R⁻.
    """
    theta = BinRel.from_pairs(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
        reflexive=True, symmetric=True,
    )
    return Document(
        "five_set",
        Algebra(5),
        {"theta": theta},
        "no operations; theta is a non-representable tolerance "
        "(elements a, b1, b2, b3, c are 0..4)",
    )


def _s7_theta() -> BinRel:
    pairs = [(6, x) for x in range(6)]
    pairs += [(0, i) for i in (1, 2, 3, 4)]
    pairs += [(i, 5) for i in (1, 2, 3, 4)]
    return BinRel.from_pairs(7, pairs, reflexive=True, symmetric=True)


def s7_semilattice() -> Document:
    """Join semilattice on seven elements: six minimal elements below a top.

    Minimals a, b1, b2, b3, b4, c are 0..5 and the top is 6; the join of
    two distinct elements is always the top.  theta relates the top to
    everything, a to each b_i, and each b_i to c.  It is a tolerance but
    not representable: there is no meet to cut theta down along the order.
    """
    join = OperationTable.from_function("join", 2, 7, lambda x, y: x if x == y else 6)
    return Document(
        "s7_semilattice",
        Algebra(7, (join,)),
        {"theta": _s7_theta()},
        "join semilattice; theta is a non-representable tolerance "
        "(minimals a, b1..b4, c are 0..5, top is 6)",
    )


def l7_majority() -> Document:
    """Majority algebra on the seven nonzero elements of an eight-element lattice.

    The ambient lattice has six atoms (0..5 here), a top (6) and a bottom;
    f(x, y, z) = (x+y)(x+z)(y+z) is the lattice median.  Two distinct
    nonzero elements join to the top, so on nonzero arguments f is the
    repeated argument if there is one and the top otherwise: the nonzero
    part carries f as a ternary majority operation.  theta is the same
    relation as on the semilattice entry and is again a tolerance, again
    not representable.
    """
    maj = OperationTable.from_function(
        "f", 3, 7, lambda x, y, z: x if x in (y, z) else y if y == z else 6)
    return Document(
        "l7_majority",
        Algebra(7, (maj,)),
        {"theta": _s7_theta()},
        "ternary lattice-median majority algebra; theta is a "
        "non-representable tolerance (atoms a, b1..b4, c are 0..5, top is 6)",
    )


def m3() -> Document:
    """Diamond lattice: bottom 0, atoms 1..3, top 4."""
    leq = {(0, x) for x in range(5)} | {(x, 4) for x in range(5)}
    join, meet = _lattice_ops(5, leq)
    return Document(
        "m3",
        Algebra(5, (join, meet)),
        {"leq": BinRel.from_pairs(5, leq, reflexive=True)},
        "diamond lattice M3 (bottom 0, atoms 1..3, top 4); every tolerance "
        "is representable through the order",
    )


def n5() -> Document:
    """Pentagon lattice: 0 < 1 < 3 < 4 and 0 < 2 < 4."""
    leq = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)}
    join, meet = _lattice_ops(5, leq)
    return Document(
        "n5",
        Algebra(5, (join, meet)),
        {"leq": BinRel.from_pairs(5, leq, reflexive=True)},
        "pentagon lattice N5 (0 < 1 < 3 < 4 and 0 < 2 < 4); every tolerance "
        "is representable through the order",
    )


def chain(k: int) -> Document:
    """Chain lattice 0 < 1 < ... < k-1."""
    if k <= 0:
        raise ValueError(f"chain length must be positive, got {k}")
    if k > MAX_SIZE:
        raise ValueError(f"chain length must be at most {MAX_SIZE}, got {k}")
    leq = {(a, b) for a in range(k) for b in range(a, k)}
    join = OperationTable.from_function("join", 2, k, max)
    meet = OperationTable.from_function("meet", 2, k, min)
    return Document(
        f"chain({k})",
        Algebra(k, (join, meet)),
        {"leq": BinRel.from_pairs(k, leq, reflexive=True)},
        f"{k}-element chain; every tolerance is representable through the order",
    )


def theta_ab(n: int, a: int, b: int) -> Document:
    """All pairs except (a, b) and (b, a), on a set with no operations.

    Always representable: rep shrinks rows a and b to their diagonal bit
    and keeps every other row full, which gives rep∘rep⁻ = theta.
    """
    if n < 2:
        raise ValueError(f"need at least two elements, got {n}")
    if n > MAX_SIZE:
        raise ValueError(f"need at most {MAX_SIZE} elements, got {n}")
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"need two distinct elements of 0..{n - 1}, got ({a}, {b})")
    full = (1 << n) - 1
    rows = [full] * n
    rows[a] = full & ~(1 << b)
    rows[b] = full & ~(1 << a)
    theta = BinRel(n, rows)
    rep_rows = [full] * n
    rep_rows[a] = 1 << a
    rep_rows[b] = 1 << b
    rep = BinRel(n, rep_rows)
    return Document(
        f"theta_ab({n},{a},{b})",
        Algebra(n),
        {"theta": theta, "rep": rep},
        f"tolerance missing exactly the pair ({a}, {b}); rep is a bundled "
        "representation witness",
    )


def expand_five() -> Document:
    """Unary expansion of five_set by all maps into theta-related pairs.

    In the expansion every reflexive compatible relation other than the
    diagonal contains theta, so theta is not even weakly representable
    there.
    """
    base = five_set()
    theta = base.relations["theta"]
    return Document(
        "expand_five",
        expand(base.algebra, theta),
        {"theta": theta},
        "unary expansion of five_set; theta is a tolerance that is not "
        "weakly representable",
    )


_PLAIN = {
    "five_set": five_set,
    "s7_semilattice": s7_semilattice,
    "l7_majority": l7_majority,
    "m3": m3,
    "n5": n5,
    "expand_five": expand_five,
}

_CHAIN_RE = re.compile(r"chain\((\d+)\)\Z")
_THETA_AB_RE = re.compile(r"theta_ab\((\d+),(\d+),(\d+)\)\Z")


def corpus_names() -> list[str]:
    return sorted(_PLAIN) + ["chain(k)", "theta_ab(n,a,b)"]


def corpus_get(name: str) -> Document:
    """Look up a corpus entry by name; parameterized names take literal integers."""
    if name in _PLAIN:
        return _PLAIN[name]()
    m = _CHAIN_RE.match(name)
    if m:
        return chain(int(m.group(1)))
    m = _THETA_AB_RE.match(name)
    if m:
        return theta_ab(*(int(g) for g in m.groups()))
    raise ValueError(f"unknown corpus entry {name!r}; known: {', '.join(corpus_names())}")
