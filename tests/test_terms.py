import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    binrels_on, eval_oracle, regular_oracle, term_graph_oracle, terms, tokenize_oracle,
)
from tolrep import BinRel, DimensionError, TermSyntaxError
from tolrep.terms import (
    MAX_TERM_DEPTH,
    Compose,
    Intersect,
    TermGraph,
    Var,
    _tokenize,
    eval_term,
    is_regular,
    parse_term,
    term_graph,
    term_to_text,
    term_variables,
)


class TestParsing:
    def test_single_variable(self):
        assert parse_term("x") == Var("x")

    def test_compose_binds_tighter(self):
        assert parse_term("x o y & z") == Intersect(Compose(Var("x"), Var("y")), Var("z"))
        assert parse_term("z & x o y") == Intersect(Var("z"), Compose(Var("x"), Var("y")))

    def test_left_associative(self):
        assert parse_term("x o y o z") == Compose(Compose(Var("x"), Var("y")), Var("z"))
        assert parse_term("x & y & z") == Intersect(Intersect(Var("x"), Var("y")), Var("z"))

    def test_parens(self):
        assert parse_term("x o (y & z)") == Compose(Var("x"), Intersect(Var("y"), Var("z")))

    def test_unicode_aliases(self):
        assert parse_term("x ∘ y ∩ z") == parse_term("x o y & z")

    def test_whitespace_is_free(self):
        assert parse_term("  x o(y&z) ") == parse_term("x o (y & z)")

    def test_long_names(self):
        assert parse_term("theta o rho_2") == Compose(Var("theta"), Var("rho_2"))

    def test_o_is_reserved(self):
        with pytest.raises(TermSyntaxError):
            parse_term("o")
        with pytest.raises(TermSyntaxError):
            parse_term("x o o")

    def test_error_positions(self):
        with pytest.raises(TermSyntaxError) as exc:
            parse_term("x &")
        assert exc.value.position == 3
        with pytest.raises(TermSyntaxError) as exc:
            parse_term("x ? y")
        assert exc.value.position == 2

    def test_unbalanced_parens(self):
        with pytest.raises(TermSyntaxError):
            parse_term("(x o y")
        with pytest.raises(TermSyntaxError):
            parse_term("x o y)")

    def test_deep_parentheses(self):
        assert parse_term("(" * 2000 + "x" + ")" * 2000) == Var("x")
        with pytest.raises(TermSyntaxError):
            parse_term("(" * 2000 + "x" + ")" * 1999)

    def test_depth_limit(self):
        # right-nested and left-chained operators count alike
        d = MAX_TERM_DEPTH
        nested = parse_term("x o (" * d + "y" + ")" * d)
        chained = parse_term("x" + " & y" * d)
        for term in (nested, chained):
            assert parse_term(term_to_text(term)) == term
            assert term_variables(term) == {"x", "y"}
            assert not is_regular(term)
        with pytest.raises(TermSyntaxError) as exc:
            parse_term("x o (" * (d + 1) + "y" + ")" * (d + 1))
        assert exc.value.position == 2
        with pytest.raises(TermSyntaxError) as exc:
            parse_term("x" + " & y" * (d + 1))
        assert exc.value.position == 4 * d + 2

    def test_empty(self):
        with pytest.raises(TermSyntaxError):
            parse_term("")
        with pytest.raises(TermSyntaxError):
            parse_term("   ")

    @given(terms)
    def test_roundtrip(self, term):
        assert parse_term(term_to_text(term)) == term

    def test_minimal_parentheses(self):
        t = Intersect(Compose(Var("x"), Var("y")), Var("z"))
        assert term_to_text(t) == "x o y & z"
        t = Compose(Var("x"), Intersect(Var("y"), Var("z")))
        assert term_to_text(t) == "x o (y & z)"

    def test_variables(self):
        assert term_variables(parse_term("x o y & x")) == {"x", "y"}

    # ASCII name characters, the symbols, a non-ASCII letter, an unexpected
    # character and ASCII and Unicode spaces
    @given(st.text(st.sampled_from(list("xyzXYZ_09o()&∩∘é? \t\n\x0b\u00a0\u2003"))))
    def test_tokens_match_character_loop_oracle(self, text):
        try:
            expected = tokenize_oracle(text)
        except TermSyntaxError as exc:
            with pytest.raises(TermSyntaxError) as got:
                _tokenize(text)
            assert (got.value.position, str(got.value)) == (exc.position, str(exc))
        else:
            assert _tokenize(text) == expected


class TestTermGraph:
    def test_single_variable(self):
        g = term_graph(Var("x"))
        assert g.vertex_count == 2
        assert g.edges == ((g.source, g.sink, "x"),)
        assert g.source != g.sink

    def test_compose_chains(self):
        g = term_graph(parse_term("x o y"))
        assert g.vertex_count == 3
        assert len(g.edges) == 2

    def test_intersect_parallels(self):
        g = term_graph(parse_term("x & y"))
        assert g.vertex_count == 2
        assert len(g.edges) == 2
        assert {e[:2] for e in g.edges} == {(g.source, g.sink)}

    def test_repeated_variable_keeps_both_edges(self):
        g = term_graph(parse_term("x & x"))
        assert len(g.edges) == 2

    @given(terms)
    def test_edge_per_occurrence(self, term):
        def occurrences(t):
            if isinstance(t, Var):
                return 1
            return occurrences(t.left) + occurrences(t.right)

        assert len(term_graph(term).edges) == occurrences(term)

    @given(terms)
    def test_matches_bottom_up_oracle(self, term):
        assert term_graph(term) == term_graph_oracle(term)

    def test_numbered_by_first_appearance(self):
        g = term_graph(parse_term("x o y & z o w"))
        assert g == TermGraph(4, ((0, 1, "x"), (1, 2, "y"), (0, 3, "z"), (3, 2, "w")), 0, 2)


class TestRegularity:
    def test_small_fixed_cases(self):
        assert not is_regular(parse_term("x o x"))
        assert not is_regular(parse_term("x & x"))
        assert is_regular(parse_term("x o y"))
        assert is_regular(parse_term("x & y"))

    def test_repeated_variable_can_still_be_regular(self):
        # the two x edges share no vertex here
        assert is_regular(parse_term("x o y & z o x"))

    def test_shared_endpoint_breaks_regularity(self):
        assert not is_regular(parse_term("x o y & x o z"))
        assert not is_regular(parse_term("(x & y) o (x & z)"))

    @given(terms)
    def test_matches_incident_label_oracle(self, term):
        assert is_regular(term) == regular_oracle(term)

    @given(terms)
    def test_invariant_under_renaming(self, term):
        mapping = {"w": "p", "x": "q", "y": "r", "z": "s"}

        def rename(t):
            if isinstance(t, Var):
                return Var(mapping[t.name])
            return type(t)(rename(t.left), rename(t.right))

        assert is_regular(term) == is_regular(rename(term))

    @given(terms)
    def test_all_distinct_variables_regular(self, term):
        # give every occurrence its own label; no clashes possible
        counter = [0]

        def freshen(t):
            if isinstance(t, Var):
                counter[0] += 1
                return Var(f"v{counter[0]}")
            return type(t)(freshen(t.left), freshen(t.right))

        assert is_regular(freshen(term))


class TestEvaluation:
    def test_compose_example(self):
        env = {
            "x": BinRel.from_pairs(3, [(0, 1)]),
            "y": BinRel.from_pairs(3, [(1, 2)]),
        }
        got = eval_term(parse_term("x o y"), env)
        assert sorted(got.pairs()) == [(0, 2)]

    def test_intersection_example(self):
        env = {
            "x": BinRel.from_pairs(2, [(0, 1), (1, 0)]),
            "y": BinRel.from_pairs(2, [(0, 1)]),
        }
        got = eval_term(parse_term("x & y"), env)
        assert sorted(got.pairs()) == [(0, 1)]

    def test_unbound_variable(self):
        with pytest.raises(ValueError, match="unbound"):
            eval_term(parse_term("x o y"), {"x": BinRel.diagonal(2)})
        with pytest.raises(ValueError, match="unbound term variables: y, z$"):
            eval_term(parse_term("x o y & z"), {"x": BinRel.diagonal(2)})

    def test_mismatched_universes(self):
        env = {"x": BinRel.diagonal(2), "y": BinRel.diagonal(3)}
        with pytest.raises(DimensionError):
            eval_term(parse_term("x o y"), env)

    @given(terms, st.data())
    def test_matches_pair_set_oracle(self, term, data):
        n = data.draw(st.integers(1, 4))
        env = {}
        env_sets = {}
        for name in sorted(term_variables(term)):
            rel = data.draw(binrels_on(n))
            env[name] = rel
            env_sets[name] = set(rel.pairs())
        got = eval_term(term, env)
        assert got.n == n
        assert set(got.pairs()) == eval_oracle(term, env_sets)

    def test_extra_bindings_are_fine(self):
        env = {"x": BinRel.diagonal(2), "unused": BinRel.full(2)}
        assert eval_term(Var("x"), env) == BinRel.diagonal(2)
