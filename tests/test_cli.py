import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_python
from tolrep import (Algebra, BinRel, Document, DocumentError, corpus_get, parse_document,
                    print_document, verify)
from tolrep import cli
from tolrep.cli import run
from tolrep.document import MAX_SIZE


def write(tmp_path, text, name="alg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def corpus_file(tmp_path, name):
    return write(tmp_path, print_document(corpus_get(name)), name="corpus.txt")


CHAIN2 = """\
algebra two
size 2
op join 2
0 1
1 1
rel theta
0 1
1 0
"""


# theta = {0, 1}² ∪ Δ is reflexive and symmetric, but f maps (0, 1) to (1, 2)
SHIFT = """\
algebra shift
size 3
op f 1 1 2 2
rel theta
0 1
1 0
"""


# Each malformed document, the line of its first fault and a fragment of the message.
PARSE_ERRORS = [
    ("size 2\n", 1, "size must follow the algebra line"),
    ("algebra a\nrel r\n", 2, "rel must follow the size line"),
    ("algebra a\nsize 2\nsize 3\n", 3, "duplicate size line"),
    ("algebra a\nsize 2\nop f\n", 3, "expected: op NAME ARITY"),
    ("algebra a\nsize 2\nop f 2\n0 1\nrel r\n", 5,  # table cut short
     "'f' expects 4 entries, got 2"),
    ("algebra a\nsize 2\nop f 2\n0 1\nmystery 1\n", 5,  # before the unknown keyword
     "'f' expects 4 entries, got 2"),
    ("algebra a\nsize 2\nrel r\n0\n", 4, "expected a pair of two integers"),
    ("algebra a\nsize 2\nrel r\n0 1 1\n", 4, "expected a pair of two integers"),
    ("algebra a\nsize 2\nrel r\n0 5\n", 4, "pair (0, 5) outside the universe"),
    ("algebra a\nsize 2\nmystery 1\n", 3, "unknown keyword 'mystery'"),
    ("algebra a\nalgebra b\nsize 2\n", 2, "duplicate algebra line"),
    ("0 1\nalgebra a\nsize 2\n", 1, "values outside an op or rel block"),
    ("algebra a\n0 1\nsize 2\n", 2, "values outside an op or rel block"),
    ("algebra a\nsize 2\n0 1\n", 3, "values outside an op or rel block"),
    ("size 2\n0 1\n", 1, "size must follow the algebra line"),  # the first fault wins
    ("algebra a\nsize 2\nop f 1\n0 0\n0 0\n", 5,  # data past a full table
     "values outside an op or rel block"),
    ("algebra a\nsize 2\nop f 1 0 1\n1 0\n", 4,  # past a table given inline
     "values outside an op or rel block"),
    ("algebra a\nsize 2\nop f 1\n0 2\n", 4, "value 2 outside the universe"),
    ("algebra a\nsize 2\nop f 2\n0 1\n1 2\n", 5, "value 2 outside the universe"),
    ("algebra a\nsize 2\nop f 1\n0 1 0\n", 4, "'f' expects 2 entries, got more"),
    ("algebra\nsize 2\n", 1, "expected: algebra NAME"),
    ("algebra a\nsize 0\n", 2, "expected: size N with N positive"),
    ("algebra a\nop f 1\n", 2, "op must follow the size line"),
    ("algebra a\nsize 1\nop f 1 0\nop f 1 0\n", 4, "duplicate operation name 'f'"),
    ("algebra a\nsize 2\nop f 1 0 x\n", 3, "table entries must be integers"),
    ("algebra a\nsize 2\nrel\n", 3, "expected: rel NAME"),
    ("algebra a\nsize 2\nop f 2\n0 1\n", 5,  # table cut off at end of file
     "'f' expects 4 entries, got 2"),
    ("algebra a\nsize 2\nop f 2\n0 1", 5,  # the same without a final newline
     "'f' expects 4 entries, got 2"),
    ("algebra a\nsize 2\x0c\nop f 1 0 1\nrel\n", 4,  # only "\n" ends a line
     "expected: rel NAME"),
    ("algebra a\r\nsize 2\r\nrel\r\n", 3, "expected: rel NAME"),
    ("# no algebra\n", 1, "missing algebra line"),
]


class TestDocumentParsing:
    def test_basic(self):
        doc = parse_document(CHAIN2)
        assert doc.name == "two"
        assert doc.algebra.n == 2
        assert doc.algebra.op("join").table == (0, 1, 1, 1)
        assert sorted(doc.relations["theta"].pairs()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_print_roundtrip(self):
        doc = parse_document(CHAIN2)
        assert parse_document(print_document(doc)) == doc
        assert print_document(parse_document(print_document(doc))) == print_document(doc)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nalgebra a # trailing\nsize 2\nrel r\n0 1 # pair\n"
        doc = parse_document(text)
        assert doc.name == "a"
        assert doc.relations["r"].has(0, 1)

    def test_diagonal_is_implicit(self):
        doc = parse_document("algebra a\nsize 3\nrel r\n")
        assert sorted(doc.relations["r"].pairs()) == [(0, 0), (1, 1), (2, 2)]

    def test_inline_op_values(self):
        text = "algebra a\nsize 2\nop f 1 1 0\n"
        doc = parse_document(text)
        assert doc.algebra.op("f").table == (1, 0)

    def test_golden_file_matches_corpus(self):
        data = resources.files("tolrep").joinpath("data/five_set.alg").read_text()
        doc = parse_document(data)
        entry = corpus_get("five_set")
        assert doc.name == "five_set"
        assert doc.algebra == entry.algebra
        assert doc.relations["theta"] == entry.relations["theta"]

    @pytest.mark.parametrize("text,line,message", PARSE_ERRORS,
                             ids=[f"{text}-{line}" for text, line, _ in PARSE_ERRORS])
    def test_error_line_numbers(self, text, line, message):
        with pytest.raises(DocumentError) as exc:
            parse_document(text)
        assert exc.value.line == line
        assert message in str(exc.value)

    def test_missing_size(self):
        with pytest.raises(DocumentError):
            parse_document("algebra a\n")

    def test_duplicate_relation(self):
        with pytest.raises(DocumentError):
            parse_document("algebra a\nsize 2\nrel r\nrel r\n")

    def test_size_bound(self):
        # the bound is checked on the size line, before any row is allocated
        assert parse_document(f"algebra a\nsize {MAX_SIZE}\n").algebra.n == MAX_SIZE
        with pytest.raises(DocumentError, match=f"largest supported universe, {MAX_SIZE}") as exc:
            parse_document(f"algebra a\nsize {MAX_SIZE + 1}\nrel r\n")
        assert exc.value.line == 2
        with pytest.raises(DocumentError, match=str(MAX_SIZE)):
            parse_document("algebra a\nsize 1000000\nrel r\n")

    def test_arity_bound(self):
        # refused on the op line, before size ** arity is taken
        with pytest.raises(DocumentError, match="arity 100000 is too large") as exc:
            parse_document("algebra a\nsize 7\nop f 100000\n")
        assert exc.value.line == 3
        with pytest.raises(DocumentError) as exc:
            parse_document("algebra a\nsize 2\nop f 6\n" + "0 " * 19)  # 62 characters
        assert exc.value.line == 3
        # a table that the text holds still parses, and one element needs one entry
        table = " ".join("0" * 1024)
        assert parse_document(f"algebra a\nsize 2\nop f 10\n{table}\n").algebra.op("f").arity == 10
        assert parse_document("algebra a\nsize 1\nop f 100000\n0\n").algebra.op("f").arity == 100000

    def test_relation_of_wrong_size(self):
        with pytest.raises(ValueError, match="lives on 3 elements"):
            Document("a", Algebra(2), {"r": BinRel.diagonal(3)})

    def test_relation_missing_diagonal(self):
        with pytest.raises(ValueError, match="missing diagonal"):
            Document("a", Algebra(2), {"r": BinRel(2, (1, 0))})

    @pytest.mark.parametrize("name", ["five_set", "l7_majority", "theta_ab(4,1,2)"])
    def test_corpus_entry_roundtrip(self, name):
        # notes print as the leading comment, which parsing skips; equality ignores them
        entry = corpus_get(name)
        text = print_document(entry)
        assert text.startswith(f"# {entry.notes}\nalgebra {entry.name}\n")
        assert parse_document(text) == entry
        assert parse_document(text).notes == ""


class TestCheckCommand:
    def test_text_output(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN2)
        assert run(["check", path, "--rel", "theta"]) == 0
        out = capsys.readouterr().out
        assert "tolerance: yes" in out
        assert "congruence: yes" in out

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN2)
        assert run(["check", path, "--rel", "theta", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "check"
        assert payload["tolerance"] is True
        assert payload["size"] == 2

    def test_order_flags_in_order(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "n5")
        assert run(["check", path, "--rel", "leq"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "reflexive: yes", "symmetric: no", "transitive: yes", "compatible: yes",
            "admissible: yes", "tolerance: no", "congruence: no"]
        assert run(["check", path, "--rel", "leq", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload.items())[4:] == [
            ("reflexive", True), ("symmetric", False), ("transitive", True),
            ("compatible", True), ("admissible", True), ("tolerance", False),
            ("congruence", False)]

    def test_unknown_relation(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN2)
        assert run(["check", path, "--rel", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent/x.alg", "--rel", "r"]) == 2
        assert "error" in capsys.readouterr().err

    def test_single_relation_is_default(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN2)
        assert run(["check", path]) == 0

    def test_ambiguous_relation_needs_flag(self, tmp_path, capsys):
        text = CHAIN2 + "rel other\n"
        path = write(tmp_path, text)
        assert run(["check", path]) == 2

    def test_kernel_plan_past_its_bound(self, tmp_path):
        # chain(33)'s binary operations would need 33 ** 4 kernel plan
        # entries: refused before anything is built, as a budget.
        path = corpus_file(tmp_path, "chain(33)")
        proc = run_python("-m", "tolrep", "check", path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("error: operation 'join' of arity 2 on 33 elements needs "
                               "1185921 kernel plan entries, past the bound of 1048576\n")

    def test_symmetry_search_past_its_bound(self, tmp_path):
        # One element, so the plan is one entry, but finding the symmetries
        # would try 12! argument orders: refused at once, as a budget.
        path = write(tmp_path, "algebra a\nsize 1\nop f 12\n0\nrel theta\n")
        proc = run_python("-m", "tolrep", "check", path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("error: operation 'f' of arity 12 on 1 elements needs 12! * "
                               "1 ** 12 table lookups to find its symmetries, past the bound "
                               "of 1048576\n")

    def test_nullary_operation_rejected_with_line(self, tmp_path, capsys):
        path = write(tmp_path, "algebra a\nsize 2\nop c 0\n1\nrel r\n")
        assert run(["check", path]) == 2
        assert "line 3" in capsys.readouterr().err


class TestRepresentCommand:
    def test_positive_with_witness(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "theta_ab(4,1,2)")
        assert run(["represent", path, "--rel", "theta", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "theta is representable" in out
        assert "rel witness" in out

    def test_negative(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["represent", path, "--rel", "theta"]) == 1
        assert "not representable" in capsys.readouterr().out

    def test_witness_feeds_back_as_admissible(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "theta_ab(4,1,2)")
        run(["represent", path, "--rel", "theta", "--witness", "--json"])
        payload = json.loads(capsys.readouterr().out)
        pairs = payload["witness"]["pairs"]
        lines = [print_document(parse_document(open(path).read())).rstrip()]
        lines.append("rel witness")
        lines += [f"{a} {b}" for a, b in pairs if a != b]
        combined = write(tmp_path, "\n".join(lines) + "\n", name="combined.txt")
        assert run(["check", combined, "--rel", "witness"]) == 0
        assert "admissible: yes" in capsys.readouterr().out

    def test_budget_exit_code(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["represent", path, "--rel", "theta", "--node-budget", "1"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_non_tolerance_rejected(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "m3")
        assert run(["represent", path, "--rel", "leq"]) == 2


    @pytest.mark.parametrize("command", ["represent", "weak-represent"])
    def test_incompatible_theta_rejected(self, tmp_path, capsys, command):
        # reflexive and symmetric, so only the check after the search rejects it
        assert run([command, write(tmp_path, SHIFT)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: relation is not a tolerance of the algebra "
                                "(needs reflexivity, symmetry and compatibility)\n")


class TestWeakRepresentCommand:
    def test_positive(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["weak-represent", path, "--rel", "theta", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "weakly representable (8 separators)" in out
        assert out.count("rel sep_") == 8

    def test_negative(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "expand_five")
        assert run(["weak-represent", path, "--rel", "theta"]) == 1
        assert "not weakly representable" in capsys.readouterr().out

    def test_budget_exit_code(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "s7_semilattice")
        assert run(["weak-represent", path, "--rel", "theta", "--rel-budget", "1"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_json_separators(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        run(["weak-represent", path, "--rel", "theta", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["weakly_representable"] is True
        assert [tuple(s["pair"]) for s in payload["separators"]] == [
            (0, 4), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 0)
        ]


class TestExpandCommand:
    def test_writes_expansion(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        out_path = str(tmp_path / "plus.txt")
        assert run(["expand", path, "--rel", "theta", "-o", out_path]) == 0
        doc = parse_document(open(out_path).read())
        assert doc.name == "five_set_plus"
        assert len(doc.algebra.ops) == 185
        assert doc.relations["theta"] == corpus_get("five_set").relations["theta"]

    def test_expansion_past_its_bound(self, tmp_path):
        # One pair on 17 points would adjoin 131 087 unary operations:
        # refused before any is built, as a budget.
        path = write(tmp_path, "algebra a\nsize 17\nrel theta\n0 1\n1 0\n")
        out_path = str(tmp_path / "plus.txt")
        proc = run_python("-m", "tolrep", "expand", path, "--rel", "theta", "-o", out_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("error: expansion on 17 elements needs 131087 unary tables of "
                               "17 entries, past the bound of 1048576\n")
        assert not os.path.exists(out_path)

    def test_unwritable_output(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        out_path = str(tmp_path / "missing" / "plus.txt")
        assert run(["expand", path, "--rel", "theta", "-o", out_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out_path}: No such file or directory\n"


class TestEnumerateCommand:
    def test_congruences_of_chain(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "chain(4)")
        assert run(["enumerate", path, "--kind", "congruences"]) == 0
        out = capsys.readouterr().out
        assert "congruences of chain(4): 8" in out

    def test_admissible_truncation_flag(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["enumerate", path, "--kind", "admissible", "--limit", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truncated"] is True
        assert payload["count"] == 5

    def test_tolerances_budget(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["enumerate", path, "--kind", "tolerances", "--limit", "3"]) == 3

    def test_limit_zero(self, tmp_path, capsys):
        # a zero limit is a budget for a lattice but not a listing length
        path = corpus_file(tmp_path, "five_set")
        assert run(["enumerate", path, "--kind", "tolerances", "--limit", "0"]) == 3
        assert run(["enumerate", path, "--kind", "admissible", "--limit", "0"]) == 2
        assert "limit must be positive" in capsys.readouterr().err

    def test_takes_no_budget_flags(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["enumerate", path, "--kind", "tolerances", "--rel-budget", "3"]) == 2


class TestPermutableCommand:
    def test_lattice_with_two_congruences(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "m3")
        assert run(["permutable", path]) == 0
        assert "congruences permute" in capsys.readouterr().out

    def test_budget_exit_code(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "m3")
        assert run(["permutable", path, "--rel-budget", "1"]) == 3

    def test_bare_universe_counterexample(self, tmp_path, capsys):
        path = write(tmp_path, "algebra bare\nsize 3\n")
        assert run(["permutable", path]) == 1
        out = capsys.readouterr().out
        assert "do not permute" in out
        assert "lies in alpha o beta but not in beta o alpha" in out


class TestTermCommands:
    def test_eval_with_binding(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["term-eval", path, "--term", "theta o theta",
                    "--bind", "theta=theta", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        got = {tuple(p) for p in payload["result"]["pairs"]}
        assert got == {(a, b) for a in range(5) for b in range(5)}

    def test_eval_squared_binding(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "chain(4)")
        assert run(["term-eval", path, "--term", "leq", "--bind", "leq=leq",
                    "--square", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # leq is transitive, squaring changes nothing
        assert len(payload["result"]["pairs"]) == 10

    def test_eval_unbound(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["term-eval", path, "--term", "x o y", "--bind", "x=theta"]) == 2
        assert "unbound" in capsys.readouterr().err
        assert run(["term-eval", path, "--term", "x o y & z", "--bind", "x=theta"]) == 2
        assert "unbound term variables: y, z" in capsys.readouterr().err

    def test_eval_bad_binding(self, tmp_path, capsys):
        path = corpus_file(tmp_path, "five_set")
        assert run(["term-eval", path, "--term", "x", "--bind", "x"]) == 2

    def test_regular(self, capsys):
        assert run(["term-regular", "--term", "x o y & z o x"]) == 0
        assert capsys.readouterr().out.strip() == "regular"
        assert run(["term-regular", "--term", "x o x"]) == 1
        assert capsys.readouterr().out.strip() == "not regular"

    def test_syntax_error(self, capsys):
        assert run(["term-regular", "--term", "x &"]) == 2
        assert "position" in capsys.readouterr().err

    def test_deeply_parenthesized_variable(self, capsys):
        assert run(["term-regular", "--term", "(" * 400 + "x" + ")" * 400]) == 0
        assert capsys.readouterr().out.strip() == "regular"

    def test_deeply_nested_operators(self, capsys):
        term = "x o (" * 400 + "x" + ")" * 400
        assert run(["term-regular", "--term", term]) == 2
        assert "position" in capsys.readouterr().err


class TestCorpusCommand:
    def test_prints_document(self, capsys):
        assert run(["corpus", "five_set"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#")
        assert "algebra five_set" in out
        doc = parse_document(out)
        assert doc.algebra == corpus_get("five_set").algebra

    def test_writes_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "c.txt")
        assert run(["corpus", "chain(3)", "-o", out_path]) == 0
        doc = parse_document(open(out_path).read())
        assert doc.algebra.n == 3

    def test_unwritable_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "missing" / "c.txt")
        assert run(["corpus", "chain(3)", "-o", out_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out_path}: No such file or directory\n"

    @pytest.mark.parametrize("name", ["chain(1000000000)", "theta_ab(257,0,1)"])
    def test_size_bound(self, name, capsys):
        assert run(["corpus", name]) == 2
        assert f"at most {MAX_SIZE}" in capsys.readouterr().err

    def test_oversized_document(self, tmp_path, capsys):
        path = write(tmp_path, f"algebra a\nsize {MAX_SIZE + 1}\nrel r\n")
        assert run(["check", path]) == 2
        assert str(MAX_SIZE) in capsys.readouterr().err

    def test_unknown(self, capsys):
        assert run(["corpus", "mystery"]) == 2
        assert "unknown corpus entry" in capsys.readouterr().err

    def test_every_plain_entry_roundtrips(self, capsys):
        for name in ("five_set", "s7_semilattice", "l7_majority", "m3", "n5", "expand_five"):
            assert run(["corpus", name]) == 0
            doc = parse_document(capsys.readouterr().out)
            entry = corpus_get(name)
            assert doc.algebra == entry.algebra
            assert doc.relations == dict(entry.relations)


class TestVerifyPaperCommand:
    @pytest.fixture
    def checks(self, monkeypatch):
        @verify._check
        def check_holds():
            return "theta stays inside"

        @verify._check
        def check_breaks():
            raise verify.CheckFailed("theta escaped")

        def use(*bodies):
            monkeypatch.setattr(verify, "CHECKS", bodies)

        return use, check_holds, check_breaks

    def test_reports_each_check(self, checks, capsys):
        use, holds, breaks = checks
        use(holds, breaks)
        assert run(["verify-paper"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS holds: theta stays inside", "FAIL breaks: theta escaped",
            "1/2 checks passed"]
        assert run(["verify-paper", "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": "verify-paper", "all_passed": False,
            "results": [{"name": "holds", "passed": True, "detail": "theta stays inside"},
                        {"name": "breaks", "passed": False, "detail": "theta escaped"}]}

    def test_all_passing(self, checks, capsys):
        use, holds, _breaks = checks
        use(holds)
        assert run(["verify-paper"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1/1 checks passed"


class TestJsonContract:
    @pytest.mark.parametrize("argv", [
        ["check", "{doc}"],
        ["represent", "{doc}"],
        ["weak-represent", "{doc}"],
        ["expand", "{doc}", "-o", "{out}"],
        ["enumerate", "{doc}", "--kind", "tolerances"],
        ["permutable", "{doc}"],
        ["term-eval", "{doc}", "--term", "theta o theta", "--bind", "theta=theta"],
        ["term-regular", "--term", "x o y"],
        ["corpus", "n5"],
        ["verify-paper"],
    ], ids=lambda argv: argv[0])
    def test_payload_starts_with_command(self, tmp_path, capsys, argv):
        paths = {"doc": write(tmp_path, CHAIN2), "out": str(tmp_path / "out.txt")}
        assert run([arg.format(**paths) for arg in argv] + ["--json"]) in {0, 1}
        payload = json.loads(capsys.readouterr().out)
        assert next(iter(payload)) == "command"
        assert payload["command"] == argv[0]


class TestNegativeBudgets:
    @pytest.mark.parametrize("argv", [
        ["represent", "--node-budget", "-3"],
        ["weak-represent", "--rel-budget", "-1"],
        ["permutable", "--rel-budget", "-1"],
        ["enumerate", "--kind", "admissible", "--limit", "-1"],
        ["enumerate", "--kind", "tolerances", "--limit", "-1"],
        ["enumerate", "--kind", "congruences", "--limit", "-1"],
    ], ids=["represent", "weak-represent", "permutable", "admissible", "tolerances",
            "congruences"])
    def test_usage_error(self, tmp_path, capsys, argv):
        path = corpus_file(tmp_path, "five_set")
        assert run([argv[0], path, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "exhausted" not in err
        assert "negative" in err or "must be positive" in err


    @pytest.mark.parametrize("argv, message", [
        (["represent", "--node-budget", "-1"], "node budget"),
        (["weak-represent", "--rel-budget", "-1"], "relation budget"),
    ], ids=["represent", "weak-represent"])
    def test_reported_before_non_tolerance(self, tmp_path, capsys, argv, message):
        assert run([argv[0], write(tmp_path, SHIFT), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message} must not be negative, got -1\n"


class TestUnreadableDocument:
    @pytest.mark.parametrize("name, reason", [
        ("missing.alg", "No such file or directory"),
        ("", "Is a directory"),
        ("bad.alg", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["missing", "directory", "not-utf-8"])
    def test_usage_error_names_the_path(self, tmp_path, capsys, name, reason):
        (tmp_path / "bad.alg").write_bytes(b"\xffalgebra a\nsize 1\n")
        path = str(tmp_path / name)
        assert run(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {path}: {reason}\n"


# Each command's argument names, defaults and handler, parsed from its
# minimal argv: a command declared without --json, --rel or a budget
# default shows up here.
COMMAND_ARGS = [
    (["check", "F"], {"file": "F", "json": False, "rel": None, "handler": cli._cmd_check}),
    (["represent", "F"], {"file": "F", "json": False, "rel": None, "witness": False,
                          "node_budget": 1_000_000, "handler": cli._cmd_represent}),
    (["weak-represent", "F"], {"file": "F", "json": False, "rel": None, "witness": False,
                               "rel_budget": 100_000,
                               "handler": cli._cmd_weak_represent}),
    (["expand", "F", "-o", "OUT"], {"file": "F", "json": False, "rel": None,
                                    "output": "OUT", "handler": cli._cmd_expand}),
    (["enumerate", "F", "--kind", "admissible"], {
        "file": "F", "json": False, "kind": "admissible", "limit": 100_000,
        "handler": cli._cmd_enumerate}),
    (["permutable", "F"], {"file": "F", "json": False, "rel_budget": 100_000,
                           "handler": cli._cmd_permutable}),
    (["term-eval", "F", "--term", "x"], {"file": "F", "json": False, "term": "x",
                                         "bind": None, "square": False,
                                         "handler": cli._cmd_term_eval}),
    (["term-regular", "--term", "x"], {"json": False, "term": "x",
                                       "handler": cli._cmd_term_regular}),
    (["corpus", "n5"], {"json": False, "name": "n5", "output": None,
                        "handler": cli._cmd_corpus}),
    (["verify-paper"], {"json": False, "handler": cli._cmd_verify_paper}),
]


class TestCommandArguments:
    @pytest.mark.parametrize("argv, expected", COMMAND_ARGS,
                             ids=[argv[0] for argv, _ in COMMAND_ARGS])
    def test_names_defaults_and_handler(self, argv, expected):
        args = vars(cli._build_parser().parse_args(argv))
        assert args == {"command": argv[0], **expected}


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_kind(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN2)
        assert run(["enumerate", path, "--kind", "everything"]) == 2


# Lines that break a document in different ways, inserted at random spots.
JUNK_LINES = ["op g 0", "op g x", "op f0 1 0", "size 0", "size 3", "size -1", "rel",
              "rel theta", "algebra again", "0 9", "1", "0 1 2", "-1 0", "frob 1"]
TERM_VARS = ["x", "y", "theta"]
TERM_OPS = ["o", "&", "∘", "∩"]
TERM_TOKENS = TERM_VARS + TERM_OPS + ["(", ")", "1x", "#"]
REL_NAMES = ["theta", "r", "s"]
EXIT_ONE = {"represent", "weak-represent", "permutable", "term-regular"}


@st.composite
def fuzz_documents(draw):
    """(text, relation names) of a small document (size ≤ 4, arity ≤ 3).

    Some documents get malformed lines.
    """
    n = draw(st.integers(1, 4))
    point = st.integers(0, n - 1)
    lines = ["algebra fuzz", f"size {n}"]
    for i in range(draw(st.integers(0, 2))):
        arity = draw(st.integers(1, 3))
        table = draw(st.lists(point, min_size=n ** arity, max_size=n ** arity))
        lines.append(f"op f{i} {arity}")
        lines += [" ".join(map(str, table[k:k + n])) for k in range(0, len(table), n)]
    names = draw(st.lists(st.sampled_from(REL_NAMES), unique=True,
                          min_size=draw(st.sampled_from([0, 1, 1])), max_size=3))
    for name in names:
        lines.append(f"rel {name}")
        if draw(st.booleans()):
            pairs = [(a, b) for a in range(n) for b in range(n)]  # always a tolerance
        else:
            pairs = draw(st.lists(st.tuples(point, point), max_size=6))
            if draw(st.booleans()):
                pairs += [(b, a) for a, b in pairs]
        lines += [f"{a} {b}" for a, b in pairs]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JUNK_LINES)))
    return "\n".join(lines) + "\n", names


@st.composite
def fuzz_argvs(draw, path, names, out_path):
    """One random command on the document at path, with budgets ≤ 50."""
    budget = st.integers(-1, 50).map(str)
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(TERM_TOKENS), max_size=8))
    else:
        # alternate variables and operators, so most of these parse
        tokens = [draw(st.sampled_from(TERM_VARS))]
        for _ in range(draw(st.integers(0, 3))):
            tokens += [draw(st.sampled_from(TERM_OPS)), draw(st.sampled_from(TERM_VARS))]
    term = draw(st.sampled_from([" ", ""])).join(tokens)
    rel = draw(st.one_of(st.sampled_from(names + ["missing"]), st.none()))
    rel_opt = [] if rel is None else ["--rel", rel]
    command = draw(st.sampled_from(["check", "represent", "weak-represent", "expand",
                                    "enumerate", "permutable", "term-eval", "term-regular"]))
    if command == "term-regular":
        argv = [command, "--term", term]
    elif command == "term-eval":
        binds = [f"{var}={draw(st.sampled_from(names + ['missing']))}"
                 for var in TERM_VARS if draw(st.integers(0, 3))]
        binds += draw(st.lists(st.sampled_from(["x", "z=theta"]), max_size=1))
        argv = [command, path, "--term", term]
        argv += [arg for bind in binds for arg in ("--bind", bind)]
        argv += draw(st.sampled_from([[], ["--square"]]))
    elif command == "represent":
        argv = [command, path, *rel_opt, "--node-budget", draw(budget)]
        argv += draw(st.sampled_from([[], ["--witness"]]))
    elif command == "weak-represent":
        argv = [command, path, *rel_opt, "--rel-budget", draw(budget)]
        argv += draw(st.sampled_from([[], ["--witness"]]))
    elif command == "expand":
        argv = [command, path, *rel_opt, "-o", out_path]
    elif command == "enumerate":
        kind = draw(st.sampled_from(["admissible", "tolerances", "congruences"]))
        argv = [command, path, "--kind", kind, "--limit", draw(budget)]
    elif command == "permutable":
        argv = [command, path, "--rel-budget", draw(budget)]
    else:
        argv = [command, path, *rel_opt]
    return argv + draw(st.sampled_from([[], ["--json"]]))


class TestRunFuzz:
    @settings(max_examples=150)
    @given(st.data())
    def test_exit_codes(self, data):
        # Every command exits 0, 1, 2 or 3 without raising, and exit 1
        # ("no") only comes from a command that decides a yes/no question.
        doc, names = data.draw(fuzz_documents())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(doc)
            argv = data.draw(fuzz_argvs(path, names, os.path.join(tmp, "out.txt")))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run(argv)
        assert code in {0, 1, 2, 3}
        assert code != 1 or argv[0] in EXIT_ONE


class TestModuleEntryPoints:
    def test_package_runs_cli(self, capsys):
        assert run(["corpus", "n5"]) == 0
        want = capsys.readouterr().out
        proc = run_python("-m", "tolrep", "corpus", "n5")
        assert proc.returncode == 0
        assert proc.stdout == want

    def test_closed_pipe_exits_quietly(self):
        # the reader is gone before anything is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python("-m", "tolrep", "corpus", "n5", stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_cli_module_runs_and_reports_errors(self, tmp_path):
        path = write(tmp_path, "algebra bad\nsize 2\nop c 0\n")
        proc = run_python("-m", "tolrep.cli", "check", path)
        assert proc.returncode == 2
        assert "line 3" in proc.stderr
