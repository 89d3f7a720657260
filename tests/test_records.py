"""Value semantics of the package's records, and what importing the CLI loads."""

import pickle
import re
from pathlib import Path

import pytest

from helpers import run_python
import tolrep
from tolrep import Algebra, BinRel, Document, OperationTable, RepWitness, corpus_get
from tolrep.terms import Compose, Intersect, Var, parse_term

JOIN = OperationTable("join", 2, [0, 1, 1, 1])
X, Y = Var("x"), Var("y")


class TestStartup:
    def test_cli_import_skips_dataclasses_and_inspect(self):
        # Only what the import itself adds counts, whatever site-packages loads first.
        code = ("import sys; before = set(sys.modules); import tolrep.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        added = proc.stdout.split()
        assert "tolrep.cli" in added
        assert "dataclasses" not in added
        assert "inspect" not in added

    def test_no_module_imports_dataclasses(self):
        src = Path(tolrep.__file__).parent
        for path in sorted(src.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"^\s*(import|from)\s+dataclasses\b", text, re.M), path.name


class TestTermNodes:
    def test_equality_and_hash_see_the_node_type(self):
        assert Compose(X, Y) != Intersect(X, Y)
        assert not Compose(X, Y) == Intersect(X, Y)
        assert len({Compose(X, Y), Intersect(X, Y)}) == 2
        assert Var("x") != ("x",) and ("x",) != Var("x")
        assert Compose(X, Y) == Compose(Var("x"), Var("y"))
        assert hash(Compose(X, Y)) == hash(Compose(Var("x"), Var("y")))
        assert Compose(X, Compose(X, Y)) != Compose(X, Intersect(X, Y))

    def test_fields_are_read_only(self):
        for node, field in ((X, "name"), (Compose(X, Y), "left"), (Intersect(X, Y), "right")):
            with pytest.raises(AttributeError):
                setattr(node, field, Y)

    def test_pickle_roundtrip(self):
        term = parse_term("(x o y) & z o x")
        loaded = pickle.loads(pickle.dumps(term))
        assert loaded == term and type(loaded.left) is Compose

    def test_repr(self):
        assert repr(parse_term("x o y & z")) == (
            "Intersect(left=Compose(left=Var(name='x'), right=Var(name='y')), "
            "right=Var(name='z'))")


class TestAlgebraRecords:
    def test_repr(self):
        assert repr(JOIN) == "OperationTable(name='join', arity=2, table=(0, 1, 1, 1))"
        assert repr(Algebra(2, (JOIN,))) == (
            "Algebra(n=2, ops=(OperationTable(name='join', arity=2, table=(0, 1, 1, 1)),))")
        assert repr(RepWitness(BinRel.diagonal(2))) == (
            "RepWitness(rel=BinRel(2, pairs=[(0, 0), (1, 1)]))")

    def test_fields_are_read_only(self):
        alg = Algebra(2, (JOIN,))
        for obj, field in ((JOIN, "name"), (JOIN, "table"), (alg, "n"), (alg, "ops"),
                           (alg, "_hash")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        with pytest.raises(AttributeError):
            alg.extra = 1

    def test_field_equality_and_hash(self):
        same = OperationTable("join", 2, (0, 1, 1, 1))
        assert JOIN == same and hash(JOIN) == hash(same)
        assert JOIN != OperationTable("meet", 2, (0, 1, 1, 1))
        assert JOIN != ("join", 2, (0, 1, 1, 1))
        assert Algebra(2, [JOIN]) == Algebra(2, (same,))
        assert hash(Algebra(2, [JOIN])) == hash(Algebra(2, (same,)))
        assert Algebra(2, (JOIN,)) != Algebra(2)

    def test_table_is_coerced_to_a_tuple(self):
        assert JOIN.table == (0, 1, 1, 1) and type(JOIN.table) is tuple
        assert Algebra(2, [JOIN]).ops == (JOIN,)

    def test_pickle_roundtrip(self):
        loaded = pickle.loads(pickle.dumps(JOIN))
        assert loaded == JOIN and hash(loaded) == hash(JOIN)
        alg = corpus_get("m3").algebra
        assert pickle.loads(pickle.dumps(alg)) == alg


class TestDocument:
    def test_equality_ignores_notes(self):
        entry = corpus_get("five_set")
        copy = Document(entry.name, entry.algebra, dict(entry.relations), "other notes")
        assert copy == entry
        assert Document("a", Algebra(2)) != Document("b", Algebra(2))
        assert Document("a", Algebra(2)).relations == {}

    def test_mutable_and_unhashable(self):
        doc = Document("a", Algebra(2))
        doc.notes = "changed"
        assert doc.notes == "changed"
        with pytest.raises(TypeError):
            hash(doc)
