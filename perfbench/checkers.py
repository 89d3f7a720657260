"""Checks on tolrep's answers that share no code with tolrep.

Relations here are frozensets of (a, b) pairs and an algebra is a size n
plus a list of (arity, table) operations, the table in row-major argument
order.  Everything is computed from the definitions, pair by pair, so a
fault in the package's bit-row kernels or searches cannot hide behind the
same fault here.  Every function is exhaustive on the sizes the benchmark
feeds it; none prunes by anything but the definitions.
"""

from __future__ import annotations

from itertools import combinations, product

# ---------------------------------------------------------------- relations


def diagonal(n):
    return frozenset((a, a) for a in range(n))


def full(n):
    return frozenset(product(range(n), repeat=2))


def compose(r, s):
    """(a, b) with some c such that (a, c) in r and (c, b) in s."""
    after = {}
    for c, b in s:
        after.setdefault(c, set()).add(b)
    return frozenset((a, b) for a, c in r for b in after.get(c, ()))


def converse(r):
    return frozenset((b, a) for a, b in r)


def is_reflexive(n, r):
    return all((a, a) in r for a in range(n))


def is_symmetric(r):
    return all((b, a) in r for a, b in r)


def is_transitive(r):
    return compose(r, r) <= r


def _apply(n, arity, table, args):
    idx = 0
    for a in args:
        idx = idx * n + a
    return table[idx]


def is_compatible(n, ops, r):
    """Every operation maps each tuple of r-related argument pairs into r."""
    pairs = list(r)
    for arity, table in ops:
        for combo in product(pairs, repeat=arity):
            left = _apply(n, arity, table, [p[0] for p in combo])
            right = _apply(n, arity, table, [p[1] for p in combo])
            if (left, right) not in r:
                return False
    return True


def is_admissible(n, ops, r):
    return is_reflexive(n, r) and is_compatible(n, ops, r)


def is_tolerance(n, ops, r):
    return is_admissible(n, ops, r) and is_symmetric(r)


def is_congruence(n, ops, r):
    return is_tolerance(n, ops, r) and is_transitive(r)


def closure(n, ops, seed, symmetric, closed=frozenset()):
    """Least reflexive (and, if asked, symmetric) compatible relation over seed.

    closed, when given, must already be compatible; it is taken in without
    rechecking.  Each pair that joins the relation is combined, in every
    argument position, with every pair present at that moment; any tuple
    of pairs has a last-joined member, so the fixpoint is reached.
    """
    rel = set(closed)
    pairs = list(rel)
    todo = []

    def add(pair):
        if pair not in rel:
            rel.add(pair)
            pairs.append(pair)
            todo.append(pair)

    for a in range(n):
        add((a, a))
    for pair in seed:
        add(tuple(pair))
        if symmetric:
            add((pair[1], pair[0]))
    while todo:
        new = todo.pop()
        for arity, table in ops:
            for pos in range(arity):
                for rest in product(list(pairs), repeat=arity - 1):
                    combo = rest[:pos] + (new,) + rest[pos:]
                    pair = (_apply(n, arity, table, [p[0] for p in combo]),
                            _apply(n, arity, table, [p[1] for p in combo]))
                    add(pair)
                    if symmetric:
                        add((pair[1], pair[0]))
    return frozenset(rel)


# ------------------------------------------------------------ representation


def is_representation(n, ops, theta, r):
    """r is reflexive, compatible and r o r^- equals theta."""
    return is_admissible(n, ops, r) and compose(r, converse(r)) == theta


def brute_representation(n, ops, theta, max_pairs=16):
    """First reflexive subset R of theta with R o R^- = theta, or None.

    Tries all 2**k subsets of the k off-diagonal pairs of theta (any
    representation lies inside theta, since reflexivity puts R into
    R o R^-), so k is capped.
    """
    offdiag = sorted(p for p in theta if p[0] != p[1])
    if len(offdiag) > max_pairs:
        raise ValueError(f"{len(offdiag)} off-diagonal pairs is past the brute-force range")
    base = diagonal(n)
    for size in range(len(offdiag) + 1):
        for chosen in combinations(offdiag, size):
            r = base | frozenset(chosen)
            if is_representation(n, ops, theta, r):
                return r
    return None


def cover_representation(n, ops, theta):
    """Representation of theta by a covering search, or None.

    Any representation R lies inside theta and contains, for each theta
    pair (a, b), some (a, c) and (b, c).  The search keeps R closed, picks
    the first theta pair not yet covered, and tries every c related to
    both a and b; a branch dies when its closure leaves theta or R o R^-
    leaves theta.  Both cuts only drop relations that no superset can
    repair, so exhausting the tree proves no representation exists.  For
    thetas with too many pairs for brute_representation.
    """
    cover = sorted((a, b) for a, b in theta if a < b)

    def explore(r):
        for a, b in cover:
            if not any((a, c) in r and (b, c) in r for c in range(n)):
                break
        else:
            return r
        for c in range(n):
            if (a, c) not in theta or (b, c) not in theta:
                continue
            child = closure(n, ops, [(a, c), (b, c)], symmetric=False, closed=r)
            if child <= theta and compose(child, converse(child)) <= theta:
                found = explore(child)
                if found is not None:
                    return found
        return None

    return explore(closure(n, ops, (), symmetric=False))


def check_separators(n, ops, theta, separators):
    """A separator family: one admissible R per ordered pair outside theta.

    Each R is reflexive and compatible, theta lies inside R o R^-, the keyed
    pair lies outside it, and the composites meet exactly in theta.
    """
    excluded = {(a, b) for a in range(n) for b in range(n) if (a, b) not in theta}
    if set(separators) != excluded:
        return False
    meet = full(n)
    for pair, r in separators.items():
        if not is_admissible(n, ops, r):
            return False
        composite = compose(r, converse(r))
        if not theta <= composite or pair in composite:
            return False
        meet &= composite
    return meet == theta


def weakly_representable_among(n, theta, admissible):
    """Does every pair outside theta have a separator among the given relations?

    admissible must hold every admissible relation of the algebra.
    """
    composites = [compose(r, converse(r)) for r in admissible]
    usable = [c for c in composites if theta <= c]
    return all(any((a, b) not in c for c in usable)
               for a in range(n) for b in range(n) if (a, b) not in theta)


# -------------------------------------------------------------- enumeration


def reflexive_symmetric(n):
    """Every reflexive symmetric relation on n elements."""
    slots = list(combinations(range(n), 2))
    base = diagonal(n)
    for mask in range(1 << len(slots)):
        chosen = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        yield base | frozenset(chosen) | frozenset((b, a) for a, b in chosen)


def reflexive(n):
    """Every reflexive relation on n elements."""
    slots = [(a, b) for a in range(n) for b in range(n) if a != b]
    base = diagonal(n)
    for mask in range(1 << len(slots)):
        yield base | frozenset(slots[i] for i in range(len(slots)) if mask >> i & 1)


def partitions(items):
    """Every set partition of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def all_tolerances(n, ops):
    if n > 5:
        raise ValueError("tolerance brute force is for n <= 5")
    return {r for r in reflexive_symmetric(n) if is_compatible(n, ops, r)}


def all_congruences(n, ops):
    """Compatible equivalence relations, one per set partition (Bell(n) of them)."""
    if n > 8:
        raise ValueError("congruence brute force is for n <= 8")
    out = set()
    for blocks in partitions(list(range(n))):
        r = frozenset((a, b) for block in blocks for a in block for b in block)
        if is_compatible(n, ops, r):
            out.add(r)
    return out


def all_admissible(n, ops):
    if n > 4:
        raise ValueError("admissible brute force is for n <= 4")
    return {r for r in reflexive(n) if is_compatible(n, ops, r)}


def catalan(k):
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


# -------------------------------------------------------------------- corpus
#
# The bundled algebras rebuilt from their definitions, so the benchmark can
# check that the package's corpus is the algebra the paper speaks of.


def _lattice_from_order(n, leq):
    def ups(x):
        return {y for y in range(n) if (x, y) in leq}

    def downs(x):
        return {y for y in range(n) if (y, x) in leq}

    join, meet = [], []
    for a in range(n):
        for b in range(n):
            common_up = ups(a) & ups(b)
            common_down = downs(a) & downs(b)
            join.append(next(u for u in common_up if common_up <= ups(u)))
            meet.append(next(d for d in common_down if common_down <= downs(d)))
    return [(2, tuple(join)), (2, tuple(meet))]


def _order(n, covers):
    leq = set(diagonal(n)) | set(covers)
    while True:
        more = compose(leq, leq) - leq
        if not more:
            return frozenset(leq)
        leq |= more


def _symmetric(n, pairs):
    return diagonal(n) | frozenset(pairs) | frozenset((b, a) for a, b in pairs)


FIVE_THETA = _symmetric(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
S7_THETA = _symmetric(7, [(6, x) for x in range(6)] + [(0, i) for i in (1, 2, 3, 4)]
                      + [(i, 5) for i in (1, 2, 3, 4)])


def reference(name):
    """(n, ops, relations) of a corpus entry, built from its definition."""
    if name == "five_set":
        return 5, [], {"theta": FIVE_THETA}
    if name == "s7_semilattice":
        join = tuple(x if x == y else 6 for x in range(7) for y in range(7))
        return 7, [(2, join)], {"theta": S7_THETA}
    if name == "l7_majority":
        # lattice median on atoms 0..5 and top 6: the repeated argument if
        # there is one, else the top
        def med(x, y, z):
            return x if x in (y, z) else y if y == z else 6
        table = tuple(med(*args) for args in product(range(7), repeat=3))
        return 7, [(3, table)], {"theta": S7_THETA}
    if name == "expand_five":
        maps = set()
        for a, b in FIVE_THETA:
            maps.update(product(sorted({a, b}), repeat=5))
        return 5, [(1, m) for m in sorted(maps)], {"theta": FIVE_THETA}
    if name in ("m3", "n5"):
        covers = ([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)] if name == "m3"
                  else [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])
        leq = _order(5, covers)
        return 5, _lattice_from_order(5, leq), {"leq": leq}
    if name.startswith("chain("):
        k = int(name[6:-1])
        ops = [(2, tuple(max(x, y) for x in range(k) for y in range(k))),
               (2, tuple(min(x, y) for x in range(k) for y in range(k)))]
        return k, ops, {"leq": frozenset((a, b) for a in range(k) for b in range(a, k))}
    if name.startswith("theta_ab("):
        n, a, b = (int(x) for x in name[9:-1].split(","))
        rep = frozenset((x, y) for x in range(n) for y in range(n) if x not in (a, b) or x == y)
        return n, [], {"theta": full(n) - {(a, b), (b, a)}, "rep": rep}
    raise ValueError(f"no reference for {name!r}")


def same_ops(ops_a, ops_b):
    """Equal as sets of (arity, table); operation names and order do not matter."""
    return sorted(ops_a) == sorted(ops_b)


# --------------------------------------------------------------------- terms
#
# Terms are nested tuples: ("var", name), ("o", left, right), ("&", left, right).


def term_text(term):
    """Render with every compound subterm in parentheses except the outermost."""
    if term[0] == "var":
        return term[1]
    return f"{_wrap(term[1])} {term[0]} {_wrap(term[2])}"


def _wrap(term):
    return term[1] if term[0] == "var" else f"({term_text(term)})"


def eval_term(term, env):
    if term[0] == "var":
        return env[term[1]]
    left, right = eval_term(term[1], env), eval_term(term[2], env)
    return compose(left, right) if term[0] == "o" else left & right


def is_regular(term):
    """No vertex of the series-parallel graph meets two same-label edges.

    Vertices are merged with a union-find; edges are kept per occurrence.
    """
    parent = []
    edges = []

    def fresh():
        parent.append(len(parent))
        return len(parent) - 1

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def build(t):
        if t[0] == "var":
            s, k = fresh(), fresh()
            edges.append((s, k, t[1]))
            return s, k
        ls, lk = build(t[1])
        rs, rk = build(t[2])
        if t[0] == "o":
            parent[find(rs)] = find(lk)
            return ls, rk
        parent[find(rs)] = find(ls)
        parent[find(rk)] = find(lk)
        return ls, lk

    build(term)
    seen = set()
    for u, v, label in edges:
        ends = {find(u), find(v)}
        for end in ends:
            if (end, label) in seen:
                return False
        for end in ends:
            seen.add((end, label))
    return True


# --------------------------------------------------------------- decisions
#
# The answers the benchmark expects when the program says "no".


def representation(n, ops, theta):
    """A representation of theta, or None: brute force when theta is small."""
    if sum(1 for a, b in theta if a != b) <= 12:
        return brute_representation(n, ops, theta)
    return cover_representation(n, ops, theta)


def no_ops_separators(n, theta):
    """Separators on a set without operations: rows a and b shrink to their
    diagonal pair and every other row is full, so R o R^- misses exactly
    (a, b) and (b, a)."""
    out = {}
    for a, b in product(range(n), repeat=2):
        if (a, b) not in theta:
            out[(a, b)] = frozenset((x, y) for x in range(n) for y in range(n)
                                    if x not in (a, b) or x == y)
    return out


def every_admissible_contains(n, ops, theta):
    """Does every admissible relation other than the diagonal contain theta?

    Such a relation holds some off-diagonal (c, d), hence the closure of
    that single pair, so checking the n*(n-1) principal closures decides it.
    """
    return all(theta <= closure(n, ops, [(c, d)], symmetric=False)
               for c in range(n) for d in range(n) if c != d)


def weakly_representable(n, ops, theta):
    """Decide weak representability where an exhaustive argument is cheap.

    Small universes list every admissible relation.  Without operations
    the no_ops_separators family always works.  When every admissible
    relation but the diagonal contains theta and theta o theta is full,
    every composite is the diagonal or the full relation, so no pair
    outside theta can be separated.
    """
    if n <= 3 or (n == 4 and all(arity <= 2 for arity, _ in ops)):
        return weakly_representable_among(n, theta, all_admissible(n, ops))
    if not ops:
        return check_separators(n, ops, theta, no_ops_separators(n, theta))
    if theta != full(n) and every_admissible_contains(n, ops, theta) \
            and compose(theta, theta) == full(n):
        return False
    raise ValueError("no exhaustive argument for this instance")


# ---------------------------------------------------------------- listings
#
# A listing of tolerances, congruences or admissible relations is right when
# every listed relation is of its kind, none repeats, and none is missing
# (or, for a truncated admissible listing, some admissible relation lies
# beyond it).


def check_listing(kind, name, n, ops, rels, limit, truncated):
    """None when `rels` is a right listing of `kind` of the algebra, else what is wrong.

    `limit` and `truncated` apply to admissible listings only; `name` picks
    the closed forms (chains) and the corpus argument (`expand_five`).
    """
    member = {"tolerances": is_tolerance, "congruences": is_congruence,
              "admissible": is_admissible}[kind]
    if len(set(rels)) != len(rels):
        return "duplicate relations"
    if not all(member(n, ops, r) for r in rels):
        return f"a listed relation is not one of the {kind}"
    if kind != "admissible":
        if [len(r) for r in rels] != sorted(len(r) for r in rels):
            return "not sorted by pair count"
        if n <= (5 if kind == "tolerances" else 8):
            every = all_tolerances(n, ops) if kind == "tolerances" else all_congruences(n, ops)
            return None if set(rels) == every else f"{len(rels)} listed, {len(every)} exist"
        if name.startswith("chain("):
            want = catalan(n) if kind == "tolerances" else 2 ** (n - 1)
            return None if len(rels) == want else f"{len(rels)} listed, {want} exist"
        return "no exhaustive count for this algebra"
    total = admissible_total(name, n, ops)
    if total is not None:
        ok = len(rels) == min(limit, total) and truncated == (total > limit)
        return None if ok else f"{len(rels)} listed (truncated={truncated}) of {total}"
    if not truncated:
        return None if not another_admissible(n, ops, rels) else "an admissible relation is missing"
    if len(rels) != limit:
        return f"{len(rels)} listed, limit {limit}"
    return None if another_admissible(n, ops, rels) else "no admissible beyond the limit"


def admissible_total(name, n, ops):
    """Number of admissible relations, where it can be counted outright."""
    if n <= 3 or (n == 4 and all(arity <= 2 for arity, _ in ops)):
        return len(all_admissible(n, ops))
    if name == "expand_five":
        _, _, rels = reference(name)
        theta = rels["theta"]
        if not every_admissible_contains(n, ops, theta):
            return -1
        rest = sorted(full(n) - theta)
        supersets = (theta | {rest[i] for i in range(len(rest)) if mask >> i & 1}
                     for mask in range(1 << len(rest)))
        return 1 + sum(1 for r in supersets if is_compatible(n, ops, r))
    return None


def another_admissible(n, ops, listed):
    """Is some admissible relation missing from `listed`, a list of admissible ones?

    Every admissible relation is reached from the least one by adding one
    pair and closing, step by step, so unless `listed` holds them all it
    misses the least one or some listed relation has such a successor
    outside it.  The last-listed relations are tried first, where a
    breadth-first listing stops.
    """
    members = set(listed)
    if closure(n, ops, (), symmetric=False) not in members:
        return True
    for r in reversed(listed):
        for pair in full(n) - r:
            if closure(n, ops, [pair], symmetric=False, closed=r) not in members:
                return True
    return False


def read_document(text):
    """(name, n, ops, relations) of an algebra document."""
    name, n, ops, rels = None, None, [], {}
    target = None
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        head = words[0]
        if head == "algebra":
            name = words[1]
        elif head == "size":
            n = int(words[1])
        elif head == "op":
            target = (int(words[2]), [])
            ops.append(target)
            target[1].extend(int(v) for v in words[3:])
        elif head == "rel":
            target = set(diagonal(n))
            rels[words[1]] = target
        elif isinstance(target, set):
            a, b = (int(v) for v in words)
            target.add((a, b))
        else:
            target[1].extend(int(v) for v in words)
    return name, n, [(arity, tuple(t)) for arity, t in ops], \
        {k: frozenset(v) for k, v in rels.items()}
