"""Shared hypothesis strategies and small oracles for the test suite."""

import os
import subprocess
import sys
from collections import deque
from itertools import islice, permutations, product

from hypothesis import strategies as st

import tolrep
from tolrep import (
    Algebra, BinRel, BudgetExceeded, OperationTable, TermSyntaxError, closure, compose, converse,
    expand, subset,
)
from tolrep.algebras import _grow, eval_op
from tolrep.decide import WeakRepWitness, _congruence_close
from tolrep.terms import Compose, Intersect, TermGraph, Var


@st.composite
def binrels_on(draw, n: int, reflexive: bool = False, symmetric: bool = False):
    rows = [draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
    if reflexive:
        rows = [row | (1 << i) for i, row in enumerate(rows)]
    if symmetric:
        for a in range(n):
            for b in range(n):
                if rows[a] >> b & 1:
                    rows[b] |= 1 << a
    return BinRel(n, rows)


@st.composite
def binrels(draw, max_n: int = 5, **kwargs):
    n = draw(st.integers(1, max_n))
    return draw(binrels_on(n, **kwargs))


@st.composite
def rel_pairs(draw, max_n: int = 5, **kwargs):
    # two relations on the same universe
    n = draw(st.integers(1, max_n))
    return draw(binrels_on(n, **kwargs)), draw(binrels_on(n, **kwargs))


@st.composite
def rel_triples(draw, max_n: int = 4, **kwargs):
    n = draw(st.integers(1, max_n))
    return tuple(draw(binrels_on(n, **kwargs)) for _ in range(3))


@st.composite
def algebras(draw, max_n: int = 4, max_ops: int = 2, max_arity: int = 2):
    n = draw(st.integers(1, max_n))
    ops = []
    for i in range(draw(st.integers(0, max_ops))):
        arity = draw(st.integers(1, max_arity))
        table = tuple(draw(st.integers(0, n - 1)) for _ in range(n**arity))
        ops.append(OperationTable(f"f{i}", arity, table))
    return Algebra(n, tuple(ops))


@st.composite
def near_projection_algebras(draw, max_n: int = 4, max_ops: int = 2, max_arity: int = 4,
                             min_n: int = 2, min_arity: int = 1):
    """Operations that are projections except on a few argument tuples.

    Uniform random tables close almost every relation to the full one;
    these keep closures small, so a kernel that skips an argument position
    gives a different closure.
    """
    n = draw(st.integers(min_n, max_n))
    ops = []
    for i in range(draw(st.integers(1, max_ops))):
        arity = draw(st.integers(min_arity, max_arity))
        keep = draw(st.integers(0, arity - 1))
        table = [args[keep] for args in product(range(n), repeat=arity)]
        for _ in range(draw(st.integers(1, 4))):
            table[draw(st.integers(0, len(table) - 1))] = draw(st.integers(0, n - 1))
        ops.append(OperationTable(f"f{i}", arity, tuple(table)))
    return Algebra(n, tuple(ops))


def _permutation_group(draw, arity):
    """The trivial group, one transposition, a 3-cycle or every permutation of the positions."""
    ident = tuple(range(arity))
    kinds = ["trivial", "transposition", "all"] + (["3-cycle"] if arity > 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "trivial":
        return [ident]
    if kind == "all":
        return list(permutations(ident))
    moved = draw(st.permutations(ident))[:2 if kind == "transposition" else 3]
    gen = list(ident)
    for a, b in zip(moved, moved[1:] + moved[:1]):
        gen[a] = b
    group = [ident]
    power = tuple(gen)
    while power != ident:
        group.append(power)
        power = tuple(gen[j] for j in power)
    return group


@st.composite
def symmetric_algebras(draw, max_n: int = 4, max_ops: int = 2):
    """Operations of arity 2 to 4 invariant under a group of argument permutations.

    Uniform random tables are almost never symmetric, so they do not reach
    a kernel that drops an argument position it should keep.  Each table
    takes one value per orbit of argument tuples under the trivial group,
    one transposition, a 3-cycle or all permutations of its positions.  The
    value comes from a random table or from a projection, which the full
    group turns into min, max or a median.  One time in three an entry is
    then changed, so the table just misses that symmetry.
    """
    n = draw(st.integers(2, max_n))
    ops = []
    for i in range(draw(st.integers(1, max_ops))):
        arity = draw(st.integers(2, 4))
        group = _permutation_group(draw, arity)
        args = list(product(range(n), repeat=arity))
        if draw(st.booleans()):
            keep = draw(st.integers(0, arity - 1))
            base = {x: x[keep] for x in args}
        else:
            base = dict(zip(args, draw(st.lists(st.integers(0, n - 1),
                                                min_size=len(args), max_size=len(args)))))
        table = [base[min(tuple(x[j] for j in perm) for perm in group)] for x in args]
        if draw(st.integers(0, 2)) == 0:
            idx = draw(st.integers(0, len(table) - 1))
            table[idx] = (table[idx] + draw(st.integers(1, n - 1))) % n
        ops.append(OperationTable(f"f{i}", arity, tuple(table)))
    return Algebra(n, tuple(ops))


@st.composite
def expanded_algebras(draw):
    """An algebra with many unary operations: the expansion by a tolerance."""
    alg = draw(algebras(max_n=4, max_ops=1, max_arity=2))
    seed = draw(binrels_on(alg.n, reflexive=True, symmetric=True))
    return expand(alg, closure(alg, seed.pairs(), "reflexive-symmetric"))


@st.composite
def algebra_with_rel(draw, max_n: int = 4, **rel_kwargs):
    alg = draw(algebras(max_n=max_n))
    rel = draw(binrels_on(alg.n, **rel_kwargs))
    return alg, rel


var_names = st.sampled_from(["w", "x", "y", "z"])

terms = st.recursive(
    st.builds(Var, var_names),
    lambda inner: st.builds(Compose, inner, inner) | st.builds(Intersect, inner, inner),
    max_leaves=6,
)


def _image(algebra: Algebra, op: OperationTable, args) -> tuple[int, int]:
    """op applied componentwise to a tuple of pairs."""
    n = algebra.n
    left = right = 0
    for a, b in args:
        left = left * n + a
        right = right * n + b
    return op.table[left], op.table[right]


def closure_oracle(algebra: Algebra, seed, symmetric: bool) -> BinRel:
    """The closure by its definition: a naive fixpoint over a pair set.

    Starts from the diagonal and the seed (and their converses when
    symmetric), then applies every operation to every tuple of present
    pairs, round after round, until a round adds nothing.  Shares nothing
    with the kernel plan or its semi-naive order; only usable on small
    algebras.
    """
    n = algebra.n
    pairs = {(a, a) for a in range(n)} | set(seed)
    while True:
        if symmetric:
            pairs |= {(b, a) for a, b in pairs}
        new = {_image(algebra, op, args)
               for op in algebra.ops for args in product(pairs, repeat=op.arity)}
        if new <= pairs:
            return BinRel.from_pairs(n, pairs)
        pairs |= new


def transitive_oracle(pairs) -> set:
    """The transitive closure of a pair set, composing it with itself until nothing is new."""
    pairs = set(pairs)
    while True:
        step = {(a, d) for a, b in pairs for c, d in pairs if b == c}
        if step <= pairs:
            return pairs
        pairs |= step


def congruence_close_oracle(algebra: Algebra, rel: BinRel) -> BinRel:
    """The least congruence holding rel, by alternating two pair-set closures.

    Alternates closure_oracle in its symmetric mode with transitive_oracle
    until neither adds a pair.  Unlike _congruence_close, it does not rely
    on the transitive closure of a tolerance being compatible.
    """
    pairs = set(rel.pairs())
    while True:
        closed = transitive_oracle(closure_oracle(algebra, pairs, symmetric=True).pairs())
        if closed == pairs:
            return BinRel.from_pairs(algebra.n, pairs)
        pairs = closed


def warshall_close_oracle(rel: BinRel) -> BinRel:
    """The transitive closure of rel, by Warshall's algorithm on the bit rows.

    For each k in turn, every row holding k takes in row k.  This was the
    package's congruence closure before it merged classes; on a reflexive
    symmetric relation it gives the least equivalence holding it.
    """
    n = rel.n
    rows = list(rel.rows)
    for k in range(n):
        bit = 1 << k
        for a in range(n):
            if rows[a] & bit:
                rows[a] |= rows[k]
    return BinRel(n, rows)


def compatible_oracle(algebra: Algebra, rel: BinRel) -> bool:
    """Compatibility by its definition: every tuple of pairs maps into rel."""
    pairs = set(rel.pairs())
    return all(_image(algebra, op, args) in pairs
               for op in algebra.ops for args in product(pairs, repeat=op.arity))


def shape_flags_oracle(rel: BinRel) -> tuple[bool, bool]:
    """(reflexive, symmetric), pair by pair on the rows, with no converse built.

    Each row must hold its own element, and each element b of row a must
    have a in its row.
    """
    rows = rel.rows
    reflexive = all(row >> a & 1 for a, row in enumerate(rows))
    symmetric = all(rows[b] >> a & 1 for a, row in enumerate(rows)
                    for b in range(rel.n) if row >> b & 1)
    return reflexive, symmetric


def run_python(*args, stdout=subprocess.PIPE):
    """Run a fresh interpreter with args on this checkout's package."""
    src = os.path.dirname(os.path.dirname(tolrep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def compose_oracle(r: BinRel, s: BinRel) -> set:
    """Composition by definition, pair by pair."""
    left = set(r.pairs())
    right = set(s.pairs())
    return {(a, b) for a, c in left for c2, b in right if c == c2}


def eval_oracle(term, env_sets: dict) -> set:
    """Term evaluation over plain pair sets."""
    if isinstance(term, Var):
        return env_sets[term.name]
    left = eval_oracle(term.left, env_sets)
    right = eval_oracle(term.right, env_sets)
    if isinstance(term, Compose):
        return {(a, b) for a, c in left for c2, b in right if c == c2}
    return left & right


def term_graph_oracle(term) -> TermGraph:
    """The term graph built bottom-up, gluing terminals with a union-find.

    A variable is an edge between two fresh vertices; composition merges
    the left sink with the right source, and intersection merges both
    sources and both sinks.  Vertices are numbered by first appearance
    along the edges.  Independent of term_graph's top-down construction.
    """
    parent: list[int] = []
    edges: list[tuple[int, int, str]] = []

    def fresh():
        parent.append(len(parent))
        return len(parent) - 1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(x, y):
        parent[find(x)] = find(y)

    def build(t):
        if isinstance(t, Var):
            s, k = fresh(), fresh()
            edges.append((s, k, t.name))
            return s, k
        ls, lk = build(t.left)
        rs, rk = build(t.right)
        if isinstance(t, Compose):
            merge(lk, rs)
            return ls, rk
        merge(ls, rs)
        merge(lk, rk)
        return ls, lk

    source, sink = build(term)
    index: dict[int, int] = {}
    out = []
    for u, v, label in edges:
        ru, rv = find(u), find(v)
        for r in (ru, rv):
            if r not in index:
                index[r] = len(index)
        out.append((index[ru], index[rv], label))
    return TermGraph(len(index), tuple(out), index[find(source)], index[find(sink)])


def regular_oracle(term) -> bool:
    """Regularity from each vertex's list of incident labels in term_graph_oracle."""
    graph = term_graph_oracle(term)
    incident: dict[int, list[str]] = {v: [] for v in range(graph.vertex_count)}
    for u, v, label in graph.edges:
        incident[u].append(label)
        if v != u:
            incident[v].append(label)
    return all(len(labels) == len(set(labels)) for labels in incident.values())


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789")


def tokenize_oracle(text: str) -> list[tuple[str, str, int]]:
    """The term lexer as a character loop over two hand-kept character sets."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
        elif ch in ("&", "∩"):
            tokens.append(("intersect", ch, i))
            i += 1
        elif ch == "∘":
            tokens.append(("compose", ch, i))
            i += 1
        elif ch in _NAME_START:
            start = i
            while i < len(text) and text[i] in _NAME_CONT:
                i += 1
            word = text[start:i]
            tokens.append(("compose" if word == "o" else "name", word, start))
        else:
            raise TermSyntaxError(i, f"unexpected character {ch!r}")
    tokens.append(("end", "", len(text)))
    return tokens


def grow(algebra: Algebra, rel: BinRel, extra) -> BinRel:
    """_grow from a twin of rel built without codes, so they are read off its rows."""
    return _grow(algebra, BinRel(rel.n, rel.rows), extra)


def admissible_bfs_oracle(algebra: Algebra):
    """All reflexive compatible relations, breadth-first from the diagonal.

    Orders the off-diagonal pairs by decreasing size of their principal
    relations, the closures of the diagonal plus the pair, with ties
    row-major.  Pops each relation from a queue and re-closes it plus each
    absent pair in that order, queueing every closure not seen before.
    Every admissible relation is reached because any target stays a
    superset along the way.  Independent of the join-closure enumerator;
    n² closures per relation, so only usable on small algebras.
    """
    start = closure(algebra, (), "reflexive")
    n = algebra.n
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    size = {pair: grow(algebra, start, (pair,)).pair_count() for pair in pairs}
    pairs.sort(key=lambda pair: -size[pair])
    seen = {start}
    queue = deque([start])
    while queue:
        rel = queue.popleft()
        yield rel
        for a, b in pairs:
            if not rel.rows[a] >> b & 1:
                nxt = grow(algebra, rel, ((a, b),))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)


def weak_representation_oracle(algebra: Algebra, theta: BinRel):
    """Weak representability by listing every admissible relation first.

    Keeps, for each ordered pair outside theta, the first admissible R in
    admissible_bfs_oracle order whose composite R∘R⁻ contains theta but
    not the pair.  Independent of the covering search and of the join
    enumerator; only usable on small algebras.
    """
    n = algebra.n
    usable = []
    for rel in admissible_bfs_oracle(algebra):
        composite = compose(rel, converse(rel))
        if subset(theta, composite):
            usable.append((rel, composite))
    separators = {}
    for a in range(n):
        for b in range(n):
            if a == b or theta.rows[a] >> b & 1:
                continue
            for rel, composite in usable:
                if not composite.rows[a] >> b & 1:
                    separators[(a, b)] = rel
                    break
            else:
                return None
    return WeakRepWitness(separators)


def relabel(rel: BinRel, perm) -> BinRel:
    """The image of rel under the permutation perm of its universe."""
    return BinRel.from_pairs(rel.n, [(perm[a], perm[b]) for a, b in rel.pairs()])


def relabel_algebra(algebra: Algebra, perm) -> Algebra:
    """The isomorphic copy of algebra in which each element x is named perm[x]."""
    inverse = [0] * algebra.n
    for x, image in enumerate(perm):
        inverse[image] = x
    return Algebra(algebra.n, tuple(
        OperationTable.from_function(
            op.name, op.arity, algebra.n,
            lambda *args, op=op: perm[eval_op(algebra, op.name, (inverse[y] for y in args))])
        for op in algebra.ops))


def join_closure_oracle(algebra: Algebra, kind: str, limit: int = 10**5) -> list:
    """Admissible relations, tolerances or congruences by pairwise join-then-close.

    kind is "admissible", "tolerances" or "congruences".  Starts from the
    diagonal and the principal relations, then joins every item with every
    earlier item and re-closes the join under the operations (for
    congruences, with congruence_close_oracle).  O(T²) closures, so only
    usable on small algebras.  Raises BudgetExceeded once more than limit
    relations exist.
    """
    def close(rel):
        return congruence_close_oracle(algebra, rel) if kind == "congruences" else rel

    n = algebra.n
    symmetric = kind != "admissible"
    mode = "reflexive-symmetric" if symmetric else "reflexive"
    diag = closure(algebra, (), mode)
    seen = {diag}
    items = [diag]

    def add(rel):
        if rel not in seen:
            seen.add(rel)
            items.append(rel)
            if len(items) > limit:
                raise BudgetExceeded(f"{kind} budget of {limit} passed")

    for a in range(n):
        for b in range(n):
            if a < b or a != b and not symmetric:
                add(close(closure(algebra, ((a, b),), mode)))
    i = 0
    while i < len(items):
        for pred in range(i):
            add(close(grow(algebra, items[i], items[pred].pairs())))
        i += 1
    return sorted(items, key=lambda r: (r.pair_count(), r.rows))


def join_arguments(algebra: Algebra, kind: str):
    """(bottom, pairs, join) as the enumeration of kind passes them to _join_closure.

    kind is "admissible", "tolerance" or "congruence".  bottom is the
    diagonal, and join(rel, pair) returns the least member holding both.
    """
    n = algebra.n
    diag = BinRel.diagonal(n)
    if kind == "admissible":
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        return diag, pairs, lambda r, pair: _grow(algebra, r, (pair,))
    if kind == "tolerance":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return diag, pairs, lambda r, pair: _grow(algebra, r, (pair, pair[::-1]))
    cg = {(a, b): _congruence_close(diag, grow(algebra, diag, ((a, b), (b, a))))
          for a in range(n) for b in range(a + 1, n)}
    return diag, cg, lambda r, pair: _congruence_close(r, cg[pair])


def join_every_principal_oracle(bottom, pairs, join):
    """_join_closure's sequence, joining every item with every principal.

    Takes _join_closure's arguments.  Yields bottom, then each distinct
    principal by decreasing pair count, ties in the order of their first
    pairs, then each new join of an earlier item with a principal's first
    pair whose pair the item lacks, in that principal order, as soon as it
    is found.  Unlike _join_closure, it does not skip the principals
    before the one that first produced an item, so it rebuilds many listed
    members; and it tells relations apart as BinRel values.
    """
    principals = {}
    for pair in pairs:
        principals.setdefault(join(bottom, pair), pair)
    ordered = sorted(principals, key=lambda rel: -rel.pair_count())
    firsts = [principals[rel] for rel in ordered]
    items = [bottom, *ordered]
    seen = set(items)
    yield from items
    for item in islice(items, 1, None):  # also visits the items added below
        rows = item.rows
        for pair in firsts:
            if not rows[pair[0]] >> pair[1] & 1:
                rel = join(item, pair)
                if rel not in seen:
                    seen.add(rel)
                    items.append(rel)
                    yield rel
