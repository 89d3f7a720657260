"""Tests of the benchmark's own checkers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need nothing from tolrep: every fact below is computed by the
checkers from the definitions, and every checker is shown to reject a
corrupted witness.
"""

import random
import unittest
from itertools import product

import checkers as C
import instances


def small_algebras(seed, count, max_n=3):
    """Random algebras with one unary or binary operation, for cross-checks."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        arity = rng.randint(1, 2)
        out.append((n, [(arity, tuple(rng.randrange(n) for _ in range(n ** arity)))]))
    return out


class Relations(unittest.TestCase):
    def test_compose_by_definition(self):
        r = {(0, 1), (1, 2)}
        s = {(1, 0), (2, 2)}
        self.assertEqual(C.compose(r, s), {(0, 0), (1, 2)})
        self.assertEqual(C.converse(r), {(1, 0), (2, 1)})

    def test_compatibility_rejects_a_broken_relation(self):
        n, ops, rels = C.reference("chain(4)")
        leq = rels["leq"]
        self.assertTrue(C.is_compatible(n, ops, leq))
        # meet((0, 2), (1, 1)) = (0, 1) is missing
        self.assertFalse(C.is_compatible(n, ops, C.diagonal(n) | {(0, 2)}))

    def test_closure_is_least(self):
        for n, ops in small_algebras(1, 40):
            for a, b in product(range(n), repeat=2):
                closed = C.closure(n, ops, [(a, b)], symmetric=True)
                self.assertTrue(C.is_tolerance(n, ops, closed))
                smaller = [t for t in C.all_tolerances(n, ops) if (a, b) in t]
                self.assertTrue(all(closed <= t for t in smaller))


class Representation(unittest.TestCase):
    def test_cover_search_matches_brute_force(self):
        for n, ops in small_algebras(2, 60):
            for theta in C.all_tolerances(n, ops):
                brute = C.brute_representation(n, ops, theta)
                cover = C.cover_representation(n, ops, theta)
                self.assertEqual(brute is None, cover is None)
                if cover is not None:
                    self.assertTrue(C.is_representation(n, ops, theta, cover))

    def test_corrupted_witness_is_rejected(self):
        n, ops, rels = C.reference("theta_ab(5,0,1)")
        theta, rep = rels["theta"], rels["rep"]
        self.assertTrue(C.is_representation(n, ops, theta, rep))
        # without (2, 0) nothing covers the theta pair (0, 2)
        self.assertFalse(C.is_representation(n, ops, theta, rep - {(2, 0)}))
        self.assertFalse(C.is_representation(n, ops, theta, rep | {(0, 1)}))

    def test_corpus_thetas_not_representable(self):
        for name in ("five_set", "s7_semilattice", "l7_majority"):
            n, ops, rels = C.reference(name)
            self.assertTrue(C.is_tolerance(n, ops, rels["theta"]), name)
            self.assertIsNone(C.representation(n, ops, rels["theta"]), name)

    def test_five_set_by_brute_force(self):
        self.assertIsNone(C.brute_representation(5, [], C.FIVE_THETA))

    def test_congruence_represents_itself(self):
        for n, ops in small_algebras(3, 30) + [C.reference("n5")[:2]]:
            for cong in C.all_congruences(n, ops):
                self.assertTrue(C.is_representation(n, ops, cong, cong))

    def test_order_represents_every_lattice_tolerance(self):
        for name in ("m3", "n5", "chain(4)", "chain(5)"):
            n, ops, rels = C.reference(name)
            for theta in C.all_tolerances(n, ops):
                self.assertTrue(C.is_representation(n, ops, theta, theta & rels["leq"]), name)


class WeakRepresentation(unittest.TestCase):
    def test_separators_on_a_bare_set(self):
        seps = C.no_ops_separators(5, C.FIVE_THETA)
        self.assertEqual(len(seps), 8)
        self.assertTrue(C.check_separators(5, [], C.FIVE_THETA, seps))

    def test_corrupted_family_is_rejected(self):
        seps = C.no_ops_separators(5, C.FIVE_THETA)
        first = min(seps)
        broken = dict(seps)
        broken[first] = C.full(5)  # its composite holds the keyed pair
        self.assertFalse(C.check_separators(5, [], C.FIVE_THETA, broken))
        missing = dict(seps)
        del missing[first]
        self.assertFalse(C.check_separators(5, [], C.FIVE_THETA, missing))

    def test_expand_five_claims(self):
        n, ops, rels = C.reference("expand_five")
        theta = rels["theta"]
        self.assertEqual(len(ops), 185)
        self.assertTrue(C.is_tolerance(n, ops, theta))
        self.assertTrue(C.every_admissible_contains(n, ops, theta))
        self.assertFalse(C.weakly_representable(n, ops, theta))

    def test_representable_is_weakly_representable(self):
        for n, ops in small_algebras(4, 40):
            for theta in C.all_tolerances(n, ops):
                if C.brute_representation(n, ops, theta) is not None:
                    self.assertTrue(C.weakly_representable(n, ops, theta))


class Counts(unittest.TestCase):
    def test_chains(self):
        for k in range(1, 6):
            n, ops, _ = C.reference(f"chain({k})")
            self.assertEqual(len(C.all_tolerances(n, ops)), C.catalan(k))
            self.assertEqual(len(C.all_congruences(n, ops)), 2 ** (k - 1))

    def test_catalan(self):
        self.assertEqual([C.catalan(k) for k in range(7)], [1, 1, 2, 5, 14, 42, 132])

    def test_partitions_are_bell_numbers(self):
        self.assertEqual([sum(1 for _ in C.partitions(list(range(k)))) for k in range(6)],
                         [1, 1, 2, 5, 15, 52])

    def test_classes_nest(self):
        for n, ops in small_algebras(5, 20):
            adm = C.all_admissible(n, ops)
            tol = C.all_tolerances(n, ops)
            cong = C.all_congruences(n, ops)
            self.assertTrue(cong <= tol <= adm)
            self.assertEqual(tol, {r for r in adm if C.is_symmetric(r)})

    def test_bare_set_counts(self):
        # every reflexive relation is admissible, every equivalence a congruence
        self.assertEqual(len(C.all_admissible(3, [])), 2 ** 6)
        self.assertEqual(len(C.all_tolerances(4, [])), 2 ** 6)
        self.assertEqual(len(C.all_congruences(4, [])), 15)


def breadth_first_admissible(n, ops, limit=None):
    """Admissible relations from the least one by one-pair steps, in order found."""
    found = [C.closure(n, ops, (), symmetric=False)]
    seen = set(found)
    for r in found:
        for pair in sorted(C.full(n) - r):
            s = C.closure(n, ops, [pair], symmetric=False, closed=r)
            if s not in seen:
                if limit is not None and len(found) == limit:
                    return found
                seen.add(s)
                found.append(s)
    return found


class Listings(unittest.TestCase):
    # a 5-cycle: its admissible relations are the 16 unions of pair orbits
    CYCLE = (5, [(1, (1, 2, 3, 4, 0))])

    def test_complete_tolerance_listing(self):
        n, ops, _ = C.reference("chain(4)")
        rels = sorted(C.all_tolerances(n, ops), key=lambda r: (len(r), sorted(r)))
        self.assertIsNone(C.check_listing("tolerances", "chain(4)", n, ops, rels, None, False))
        self.assertIsNotNone(C.check_listing("tolerances", "chain(4)", n, ops, rels[:-1],
                                             None, False))
        self.assertIsNotNone(C.check_listing("tolerances", "chain(4)", n, ops,
                                             rels + rels[-1:], None, False))
        self.assertIsNotNone(C.check_listing("tolerances", "chain(4)", n, ops, rels[::-1],
                                             None, False))

    def test_chain_closed_form(self):
        n, ops, _ = C.reference("chain(6)")
        congs = sorted(C.all_congruences(n, ops), key=len)
        self.assertIsNone(C.check_listing("congruences", "chain(6)", n, ops, congs, None, False))
        self.assertIsNotNone(C.check_listing("congruences", "chain(6)", n, ops, congs[1:],
                                             None, False))

    def test_counted_admissible_listing(self):
        n, ops, _ = C.reference("chain(4)")
        rels = sorted(C.all_admissible(n, ops), key=len)
        self.assertIsNone(C.check_listing("admissible", "chain(4)", n, ops, rels, 1000, False))
        self.assertIsNotNone(C.check_listing("admissible", "chain(4)", n, ops, rels, 1000, True))
        self.assertIsNotNone(C.check_listing("admissible", "chain(4)", n, ops, rels[1:],
                                             1000, False))
        self.assertIsNone(C.check_listing("admissible", "chain(4)", n, ops, rels[:10], 10, True))
        self.assertIsNotNone(C.check_listing("admissible", "chain(4)", n, ops, rels[:10],
                                             10, False))

    def test_successor_argument(self):
        n, ops = self.CYCLE
        rels = breadth_first_admissible(n, ops)
        self.assertEqual(len(rels), 16)
        self.assertIsNone(C.check_listing("admissible", "cycle", n, ops, rels, 100, False))
        self.assertIsNotNone(C.check_listing("admissible", "cycle", n, ops, rels, 100, True))
        for drop in range(len(rels)):
            missing = rels[:drop] + rels[drop + 1:]
            self.assertIsNotNone(C.check_listing("admissible", "cycle", n, ops, missing,
                                                 100, False), drop)
        self.assertIsNone(C.check_listing("admissible", "cycle", n, ops, rels[:6], 6, True))
        self.assertIsNotNone(C.check_listing("admissible", "cycle", n, ops, rels[:5], 6, True))
        # a relation that is not compatible
        broken = rels[:5] + [C.diagonal(n) | {(0, 1)}]
        self.assertIsNotNone(C.check_listing("admissible", "cycle", n, ops, broken, 6, True))

    def test_truncated_listing_that_holds_everything(self):
        n, ops = self.CYCLE
        rels = breadth_first_admissible(n, ops)
        self.assertIsNotNone(C.check_listing("admissible", "cycle", n, ops, rels, 16, True))

    def test_expand_five_total(self):
        n, ops, rels = C.reference("expand_five")
        total = C.admissible_total("expand_five", n, ops)
        self.assertGreater(total, 2)
        listing = breadth_first_admissible(n, ops, limit=total)
        self.assertEqual(len(listing), total)
        self.assertIsNone(C.check_listing("admissible", "expand_five", n, ops, listing,
                                          total + 1, False))
        self.assertIsNotNone(C.check_listing("admissible", "expand_five", n, ops, listing[:-1],
                                             total + 1, False))
        self.assertIsNone(C.check_listing("admissible", "expand_five", n, ops, listing[:2],
                                          2, True))
        self.assertIsNotNone(C.check_listing("admissible", "expand_five", n, ops, listing[:2],
                                             2, False))


class Corpus(unittest.TestCase):
    def test_majority_and_semilattice(self):
        n, ops, _ = C.reference("l7_majority")
        table = ops[0][1]
        for x, y in product(range(n), repeat=2):
            for args in ((x, x, y), (x, y, x), (y, x, x)):
                self.assertEqual(table[(args[0] * n + args[1]) * n + args[2]], x)
        n, ops, _ = C.reference("s7_semilattice")
        join = ops[0][1]
        self.assertTrue(all(join[x * n + y] == join[y * n + x] for x in range(n) for y in range(n)))

    def test_read_document(self):
        text = "algebra t\nsize 2\nop f 2\n0 1\n1 1\nrel r\n0 1\n"
        self.assertEqual(C.read_document(text),
                         ("t", 2, [(2, (0, 1, 1, 1))], {"r": frozenset({(0, 0), (1, 1), (0, 1)})}))


class Terms(unittest.TestCase):
    def test_regularity(self):
        x, y, z = ("var", "x"), ("var", "y"), ("var", "z")
        self.assertTrue(C.is_regular(("o", x, y)))
        self.assertFalse(C.is_regular(("o", x, x)))
        self.assertFalse(C.is_regular(("&", ("o", x, y), ("o", x, z))))
        self.assertTrue(C.is_regular(("&", ("o", x, y), ("o", z, x))))

    def test_eval(self):
        env = {"x": frozenset({(0, 1)}), "y": frozenset({(1, 0), (0, 0)})}
        term = ("&", ("o", ("var", "x"), ("var", "y")), ("var", "y"))
        self.assertEqual(C.eval_term(term, env), frozenset({(0, 0)}))
        self.assertEqual(C.term_text(term), "(x o y) & y")


class Instances(unittest.TestCase):
    def test_same_seed_same_list(self):
        self.assertEqual(instances.represent_ops(7), instances.represent_ops(7))
        self.assertEqual(instances.enumerate_ops(7), instances.enumerate_ops(7))

    def test_every_seed_same_mix(self):
        def mix(ops):
            return [(op.kind, op.fault != "") for op in ops]
        self.assertEqual(mix(instances.represent_ops(1)), mix(instances.represent_ops(2)))
        self.assertEqual(mix(instances.enumerate_ops(1)), mix(instances.enumerate_ops(2)))
        self.assertEqual([op.fault for op in instances.cli_plan(1)[1]],
                         [op.fault for op in instances.cli_plan(2)[1]])

    def test_tree_algebras(self):
        rng = random.Random(3)
        for n, shapes in instances.TREES.items():
            for edges in shapes:
                med = instances.tree_algebra(rng, edges, 3)
                table = med.ops[0][1]
                for x, y in product(range(n), repeat=2):
                    self.assertEqual(table[(x * n + x) * n + y], x)
                meet = instances.tree_algebra(rng, edges, 2).ops[0][1]
                for x, y, z in product(range(n), repeat=3):
                    self.assertEqual(meet[meet[x * n + y] * n + z], meet[x * n + meet[y * n + z]])


if __name__ == "__main__":
    unittest.main()
