"""Instance lists of the three workloads, as plain data made from a seed.

Nothing here imports tolrep: an instance names a corpus entry or carries
its own operation tables and seed pairs, and the benchmark turns it into
package objects during set-up.  The same seed always gives the same list,
and every seed gives a list of the same length and the same mix of
operation kinds, so the share of failing operations is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product

from checkers import all_tolerances, reference, term_text

# Faults of the program that stay in the workloads as failing operations.
WEAK_S7_FAULT = ("find_weak_representation(s7_semilattice) lists every admissible "
                 "relation before testing any and passes a relation budget of 200")
DEEP_TERM_FAULT = ("term-regular on a term nested 400 parentheses deep lets "
                   "RecursionError escape cli.run and exits 1 with a traceback")
DEEP_TERM = "(" * 400 + "x" + ")" * 400


@dataclass(frozen=True)
class Algebra:
    """A corpus entry by name, or an algebra given by its tables."""

    name: str
    n: int = 0
    ops: tuple = ()  # ((arity, table), ...) when name is not a corpus entry
    corpus: bool = True


@dataclass(frozen=True)
class Op:
    """One operation of an in-process workload.

    kind is one of represent, weak, tolerances, congruences, admissible.
    theta is a relation name of the corpus entry, a frozenset of pairs, or
    a tuple of seed pairs to close into a tolerance ("seed", pairs).
    """

    kind: str
    algebra: Algebra
    theta: object = None
    budget: int = 0
    fault: str = ""


@dataclass(frozen=True)
class CliOp:
    """One tolrep process: its arguments with {name} standing for document paths."""

    argv: tuple
    fault: str = ""


# Every tree on 3 to 6 vertices up to isomorphism, as edge lists.
TREES = {
    3: [[(0, 1), (1, 2)]],
    4: [[(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)]],
    5: [[(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1), (0, 2), (0, 3), (0, 4)],
        [(0, 1), (1, 2), (2, 3), (2, 4)]],
    6: [[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
        [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)], [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)],
        [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)], [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]],
}


def tree_algebra(rng, edges, arity, root=0):
    """A tree on randomly relabelled vertices, as an algebra with one operation.

    Binary: the meet of the tree order rooted at vertex `root` of the edge
    list (the last common ancestor), a semilattice.  Ternary: the tree median, a majority
    operation.  Uniform random tables would make almost every tolerance
    the full relation, which decides nothing, and random tree shapes would
    make the cost of a pass swing from seed to seed; relabelled copies of
    every shape keep the work of each seed alike.
    """
    n = len(edges) + 1
    label = list(range(n))
    rng.shuffle(label)
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[label[a]].add(label[b])
        adj[label[b]].add(label[a])
    dist = []
    for src in range(n):
        d = {src: 0}
        frontier = [src]
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in d
                        and not d.__setitem__(w, d[v] + 1)]
        dist.append(d)
    if arity == 2:
        depth = dist[label[root]]

        def meet(x, y):
            on_both = [z for z in range(n) if dist[x][z] + depth[z] == depth[x]
                       and dist[y][z] + depth[z] == depth[y]]
            return max(on_both, key=lambda z: depth[z])

        table = tuple(meet(x, y) for x, y in product(range(n), repeat=2))
        return Algebra(f"tree_meet{n}", n, ((2, table),), False)

    def median(x, y, z):
        return next(v for v in range(n)
                    if dist[x][v] + dist[v][y] == dist[x][y]
                    and dist[x][v] + dist[v][z] == dist[x][z]
                    and dist[y][v] + dist[v][z] == dist[y][z])

    table = tuple(median(*args) for args in product(range(n), repeat=3))
    return Algebra(f"tree_median{n}", n, ((3, table),), False)


def unary_algebra(rng, n):
    return Algebra(f"unary{n}", n, ((1, tuple(rng.randrange(n) for _ in range(n))),), False)


def _unary_classes(n):
    """One map per isomorphism class of maps on n points (7 for n = 3)."""
    classes = set()
    for f in product(range(n), repeat=n):
        conjugates = []
        for p in permutations(range(n)):
            g = [0] * n
            for x in range(n):
                g[p[x]] = p[f[x]]
            conjugates.append(tuple(g))
        classes.add(min(conjugates))
    return sorted(classes)


UNARY3 = _unary_classes(3)


def unary_class_algebra(rng, table):
    """The map `table` on randomly relabelled points."""
    n = len(table)
    label = list(range(n))
    rng.shuffle(label)
    out = [0] * n
    for x in range(n):
        out[label[x]] = label[table[x]]
    return Algebra(f"unary{n}", n, ((1, tuple(out)),), False)


def _every_pair(n):
    return [((a, b),) for a in range(n) for b in range(a + 1, n)]


def _seed_pairs(rng, n):
    return tuple(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2)))


def _theta_abs(rng, count):
    out = []
    for _ in range(count):
        n = rng.randint(4, 7)
        a, b = sorted(rng.sample(range(n), 2))
        out.append(f"theta_ab({n},{a},{b})")
    return out


def represent_ops(seed):
    """Decisions: corpus thetas, every lattice tolerance, seeded algebras."""
    rng = random.Random(seed)
    ops = [Op("represent", Algebra(name), "theta")
           for name in ("five_set", "s7_semilattice", "l7_majority", "expand_five")]
    for name in ("m3", "n5", "chain(4)", "chain(5)"):
        n, tables, _ = reference(name)
        for theta in sorted(all_tolerances(n, tables), key=lambda r: (len(r), sorted(r))):
            ops.append(Op("represent", Algebra(name), theta))
    thetas = _theta_abs(rng, 6)
    ops += [Op("represent", Algebra(name), "theta") for name in thetas]
    for arity in (2, 3):
        for n in (4, 5, 6):
            for edges in TREES[n]:
                alg = tree_algebra(rng, edges, arity)
                ops += [Op("represent", alg, ("seed", pair)) for pair in _every_pair(n)]
    for n in (4, 5, 6):
        for _ in range(6):
            alg = unary_algebra(rng, n)
            ops += [Op("represent", alg, ("seed", _seed_pairs(rng, n))) for _ in range(2)]
    ops += [Op("weak", Algebra(name), "theta") for name in ("five_set", "expand_five")]
    ops += [Op("weak", Algebra(name), "theta") for name in thetas[:3]]
    small = [tree_algebra(rng, TREES[3][0], 2, root) for root in (0, 1)]
    small += [tree_algebra(rng, TREES[3][0], 3)] + [unary_class_algebra(rng, t) for t in UNARY3]
    ops += [Op("weak", alg, ("seed", pair)) for alg in small for pair in _every_pair(3)]
    ops.append(Op("weak", Algebra("s7_semilattice"), "theta", budget=200, fault=WEAK_S7_FAULT))
    return ops


def enumerate_ops(seed):
    """Lattice listings: corpus algebras, then small seeded algebras."""
    rng = random.Random(seed)
    ops = [Op("tolerances", Algebra(name))
           for name in ("chain(5)", "chain(6)", "n5", "expand_five")]
    ops += [Op("congruences", Algebra(name)) for name in ("s7_semilattice", "chain(6)", "n5")]
    ops += [Op("admissible", Algebra(name), budget=limit)
            for name, limit in (("s7_semilattice", 300), ("chain(5)", 300),
                                ("expand_five", 300), ("l7_majority", 30))]
    # Seeded listings are complete (limit 1000), so their output does not
    # depend on the labelling.  The mix puts the median operation inside the
    # block of n = 3 tree-median listings, which cost alike, rather than
    # between two clusters of costs, where it would jump from run to run.
    algebras = [tree_algebra(rng, TREES[3][0], arity) for arity in (2, 3) for _ in range(6)]
    algebras += [tree_algebra(rng, edges, 2) for edges in TREES[4] for _ in range(2)]
    algebras += [unary_class_algebra(rng, t) for t in UNARY3]
    for alg in algebras:
        ops += [Op("tolerances", alg), Op("congruences", alg), Op("admissible", alg, budget=1000)]
    return ops


# Corpus documents the cli workload writes during set-up, keyed by the
# placeholder its commands use.
CLI_DOCS = ("five_set", "s7_semilattice", "l7_majority", "expand_five",
            "m3", "n5", "chain(4)", "chain(5)")


def _random_term(rng, leaves, names):
    if leaves == 1:
        return ("var", rng.choice(names))
    left = rng.randint(1, leaves - 1)
    return (rng.choice("o&"), _random_term(rng, left, names),
            _random_term(rng, leaves - left, names))


def cli_plan(seed):
    """(documents, commands, terms) of the cli workload.

    Documents map placeholder to corpus name; a command's argv names a
    document as {placeholder}.  terms maps the text given to the program
    to the term tree the checkers evaluate.
    """
    rng = random.Random(seed)
    docs = {name: name for name in CLI_DOCS}
    ab1, ab2 = _theta_abs(rng, 2)
    docs["ab1"], docs["ab2"] = ab1, ab2
    terms = {}

    def term(leaves, names):
        tree = _random_term(rng, leaves, names)
        terms[term_text(tree)] = tree
        return term_text(tree)

    t_ab = term(4, "xy")
    t_m3 = term(3, "xy")
    t_reg = [term(rng.randint(3, 6), "xyz") for _ in range(3)]
    terms[DEEP_TERM] = ("var", "x")
    cmds = [
        ("check", "{five_set}", "--json"),
        ("check", "{s7_semilattice}", "--json"),
        ("check", "{l7_majority}", "--json"),
        ("check", "{n5}", "--rel", "leq", "--json"),
        ("represent", "{five_set}", "--json", "--witness"),
        ("represent", "{s7_semilattice}", "--json", "--witness"),
        ("represent", "{l7_majority}", "--json", "--witness"),
        ("represent", "{ab1}", "--rel", "theta", "--json", "--witness"),
        ("represent", "{ab2}", "--rel", "theta", "--json", "--witness"),
        ("weak-represent", "{five_set}", "--json", "--witness"),
        ("weak-represent", "{expand_five}", "--json", "--witness"),
        ("weak-represent", "{ab1}", "--rel", "theta", "--json", "--witness"),
        ("expand", "{five_set}", "-o", "{expanded}", "--json"),
        ("enumerate", "{chain(4)}", "--kind", "tolerances", "--json"),
        ("enumerate", "{m3}", "--kind", "tolerances", "--json"),
        ("enumerate", "{n5}", "--kind", "congruences", "--json"),
        ("enumerate", "{chain(4)}", "--kind", "admissible", "--limit", "50", "--json"),
        ("permutable", "{m3}", "--json"),
        ("permutable", "{chain(4)}", "--json"),
        ("term-eval", "{ab2}", "--term", t_ab, "--bind", "x=theta", "--bind", "y=rep", "--json"),
        ("term-eval", "{m3}", "--term", t_m3, "--bind", "x=leq", "--bind", "y=leq",
         "--square", "--json"),
        *(("term-regular", "--term", t, "--json") for t in t_reg),
        ("term-regular", "--term", DEEP_TERM, "--json"),
        ("corpus", "n5"),
        ("corpus", "chain(5)", "--json"),
    ]
    ops = [CliOp(argv, DEEP_TERM_FAULT if DEEP_TERM in argv else "") for argv in cmds]
    return docs, ops, terms
