"""Tests of the benchmark driver's bookkeeping; they start no tolrep process.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import unittest

import run


def loop_of(call, count=3):
    """One pass over `count` operations (at least MIN_OPERATIONS attempts)."""
    return run.timed_loop(count, call, lambda i, out: 1, 0.0)


def raise_at(bad):
    def call(i):
        if i == bad:
            raise RecursionError("deep")
        return i
    return call


class Failures(unittest.TestCase):
    def quiet(self, loop, faults):
        with contextlib.redirect_stderr(io.StringIO()):
            return run.unexpected_failures(loop, faults)

    def test_raising_operation_outside_the_faults_is_a_problem(self):
        loop = loop_of(raise_at(1))
        self.assertEqual(loop.failed, loop.passes)
        self.assertEqual(loop.relations, 2 * loop.passes)
        problems = self.quiet(loop, faults=set())
        self.assertEqual(len(problems), 1)
        self.assertIn("1:RecursionError", problems[0])

    def test_known_fault_is_not_a_problem(self):
        self.assertEqual(self.quiet(loop_of(raise_at(1)), faults={1}), [])

    def test_a_fault_elsewhere_does_not_excuse_it(self):
        self.assertEqual(len(self.quiet(loop_of(raise_at(2)), faults={1})), 1)

    def test_whole_passes(self):
        loop = loop_of(raise_at(None), count=7)
        self.assertGreaterEqual(len(loop.times), run.MIN_OPERATIONS)
        self.assertEqual(len(loop.times), 7 * loop.passes)
        self.assertEqual(loop.unsteady, [])


if __name__ == "__main__":
    unittest.main()
