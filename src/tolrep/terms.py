"""Relation terms built from composition and intersection.

Grammar (left associative, composition binds tighter):

    term   := factor ('&' factor)*
    factor := atom ('o' atom)*
    atom   := identifier | '(' term ')'

The bare identifier ``o`` is the composition operator, so it cannot name a
variable; the unicode aliases ``∘`` and ``∩`` are accepted on input.  A
term also has a two-terminal series-parallel graph, built top-down between
a source and a sink: a variable is one labeled edge between them,
composition puts a new middle vertex between its two sides, and
intersection builds both sides between the same two terminals.  A term is
regular when no vertex of that graph meets two distinct edges carrying the
same label.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .errors import DimensionError, TermSyntaxError
from .relations import BinRel, compose, intersect

__all__ = [
    "Var",
    "Compose",
    "Intersect",
    "RelTerm",
    "MAX_TERM_DEPTH",
    "TermGraph",
    "parse_term",
    "term_to_text",
    "term_variables",
    "term_graph",
    "is_regular",
    "eval_term",
]


# The nodes are named tuples that compare and hash by node type as well as
# by fields, so Compose(x, y) != Intersect(x, y) and Var("x") != ("x",).
# object.__ne__ inverts __eq__; the inherited tuple.__ne__ would ignore the type.
def _node_eq(self, other):
    if not isinstance(other, tuple):
        return NotImplemented
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _node_hash(self):
    return hash((self.__class__.__name__, *self))


class Var(NamedTuple):
    name: str
    __eq__, __ne__, __hash__ = _node_eq, object.__ne__, _node_hash


class Compose(NamedTuple):
    left: "RelTerm"
    right: "RelTerm"
    __eq__, __ne__, __hash__ = _node_eq, object.__ne__, _node_hash


class Intersect(NamedTuple):
    left: "RelTerm"
    right: "RelTerm"
    __eq__, __ne__, __hash__ = _node_eq, object.__ne__, _node_hash


RelTerm = Union[Var, Compose, Intersect]

# Deepest operator nesting parse_term accepts.
MAX_TERM_DEPTH = 200

# A name is an ASCII identifier; any other non-space character is one token.
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|\S")
_SYMBOLS = {"(": "lparen", ")": "rparen", "&": "intersect", "∩": "intersect", "∘": "compose"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        word, at = match[0], match.start()
        if match[1]:
            kind = "compose" if word == "o" else "name"
        elif word in _SYMBOLS:
            kind = _SYMBOLS[word]
        else:
            raise TermSyntaxError(at, f"unexpected character {word!r}")
        tokens.append((kind, word, at))
    tokens.append(("end", "", len(text)))
    return tokens


def _join(cls, pending, right):
    """cls(left, right) for pending = ((left, depth), offset), with its depth."""
    (left, left_depth), at = pending
    depth = max(left_depth, right[1]) + 1
    if depth > MAX_TERM_DEPTH:
        raise TermSyntaxError(at, f"term nests more than {MAX_TERM_DEPTH} operators deep")
    return cls(left, right[0]), depth


def parse_term(text: str) -> RelTerm:
    """Parse a term; raises TermSyntaxError with the offending offset.

    Open parentheses go on an explicit stack, so they may nest to any depth;
    operators may nest at most MAX_TERM_DEPTH deep, which keeps the
    recursive functions below inside Python's recursion limit.
    """
    tokens = iter(_tokenize(text))
    groups = []  # (conjunct, factor) of each enclosing '('
    # left operands waiting for their '&' and 'o', each as ((node, depth), offset)
    conjunct = factor = None
    while True:
        kind, value, at = next(tokens)
        if kind == "lparen":
            groups.append((conjunct, factor))
            conjunct = factor = None
            continue
        if kind != "name":
            raise TermSyntaxError(at, "expected a variable or '('")
        node = (Var(value), 0)
        while True:  # node is a complete atom
            if factor is not None:
                node = _join(Compose, factor, node)
            kind, value, at = next(tokens)
            if kind == "compose":
                factor = (node, at)
                break
            factor = None
            if conjunct is not None:
                node = _join(Intersect, conjunct, node)
            if kind == "intersect":
                conjunct = (node, at)
                break
            if not groups:
                if kind != "end":
                    raise TermSyntaxError(at, f"unexpected {value!r} after the term")
                return node[0]
            if kind != "rparen":
                raise TermSyntaxError(at, "expected ')'")
            conjunct, factor = groups.pop()


def term_to_text(term: RelTerm) -> str:
    """Render with the fewest parentheses; parse_term round-trips the result."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Compose):
        left = term_to_text(term.left)
        if isinstance(term.left, Intersect):
            left = f"({left})"
        right = term_to_text(term.right)
        if not isinstance(term.right, Var):
            right = f"({right})"
        return f"{left} o {right}"
    left = term_to_text(term.left)
    right = term_to_text(term.right)
    if isinstance(term.right, Intersect):
        right = f"({right})"
    return f"{left} & {right}"


def term_variables(term: RelTerm) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    return term_variables(term.left) | term_variables(term.right)


class TermGraph(NamedTuple):
    """Two-terminal series-parallel graph of a term.

    Vertices are 0..vertex_count-1.  Edges keep their identity (the same
    endpoints and label may appear twice, one edge per variable
    occurrence); endpoints are unordered.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, str], ...]
    source: int
    sink: int


def term_graph(term: RelTerm) -> TermGraph:
    """The term's graph, built top-down: each subterm between the two terminals it is given.

    Vertices are renumbered by first appearance along the edges, which
    follow the variable occurrences from left to right.
    """
    edges: list[tuple[int, int, str]] = []
    vertices = 2  # 0 and 1 are the source and the sink

    def build(t, source, sink):
        nonlocal vertices
        if isinstance(t, Var):
            edges.append((source, sink, t.name))
        elif isinstance(t, Compose):
            middle = vertices
            vertices += 1
            build(t.left, source, middle)
            build(t.right, middle, sink)
        else:
            build(t.left, source, sink)
            build(t.right, source, sink)

    build(term, 0, 1)
    index: dict[int, int] = {}
    for u, v, _label in edges:
        index.setdefault(u, len(index))
        index.setdefault(v, len(index))
    out = tuple((index[u], index[v], label) for u, v, label in edges)
    return TermGraph(len(index), out, index[0], index[1])


def is_regular(term: RelTerm) -> bool:
    """No vertex of the term graph meets two distinct same-label edges."""
    seen = set()  # (vertex, label) of the edges so far
    for u, v, label in term_graph(term).edges:
        ends = {(u, label), (v, label)}  # a loop meets its vertex once
        if not seen.isdisjoint(ends):
            return False
        seen |= ends
    return True


def eval_term(term: RelTerm, env: dict[str, BinRel]) -> BinRel:
    """Evaluate over an environment of relations sharing one universe."""
    names = term_variables(term)
    missing = sorted(names - env.keys())
    if missing:
        raise ValueError(f"unbound term variables: {', '.join(missing)}")
    sizes = {env[name].n for name in names}
    if len(sizes) > 1:
        raise DimensionError(f"environment mixes universe sizes {sorted(sizes)}")

    def walk(t):
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Compose):
            return compose(walk(t.left), walk(t.right))
        return intersect(walk(t.left), walk(t.right))

    return walk(term)
